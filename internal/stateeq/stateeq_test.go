package stateeq

import "testing"

type thread struct {
	InstrDone float64 `json:"instr_done"`
}

type process struct {
	ID      int      `json:"id"`
	Threads []thread `json:"threads"`
}

type machine struct {
	Ticks     uint64            `json:"ticks"`
	Coalesced uint64            `json:"coalesced"`
	Processes []process         `json:"processes"`
	Extra     map[string]string `json:"extra,omitempty"`
}

type session struct {
	Machine machine `json:"machine"`
}

func base() session {
	return session{Machine: machine{
		Ticks: 100,
		Processes: []process{
			{ID: 0, Threads: []thread{{1}}},
			{ID: 1, Threads: []thread{{2}}},
			{ID: 2, Threads: []thread{{1.5e9}, {3}}},
		},
	}}
}

// TestDiff: each case edits the got side (and, for the quanta, the want
// side) of one base state and must read the right path and values.
func TestDiff(t *testing.T) {
	for _, tc := range []struct {
		name   string
		edit   func(want, got *session)
		ignore []string
		want   string
	}{
		{"equal", func(_, _ *session) {}, nil, ""},
		{"nested array element", func(_, got *session) {
			got.Machine.Processes[2].Threads[0].InstrDone = 1.5000000000000002e9
		}, nil, "machine.processes[2].threads[0].instr_done: 1500000000 != 1500000000.0000002"},
		{"uint64 above 2^53", func(want, got *session) {
			// One apart, which float64 cannot tell: both read 2^60.
			want.Machine.Ticks = 1 << 60
			got.Machine.Ticks = 1<<60 + 1
		}, nil, "machine.ticks: 1152921504606846976 != 1152921504606846977"},
		{"missing key", func(_, got *session) {
			got.Machine.Extra = map[string]string{"k": "v"}
		}, nil, `machine.extra: <absent> != {"k":"v"}`},
		{"length mismatch", func(_, got *session) {
			got.Machine.Processes[2].Threads = got.Machine.Processes[2].Threads[:1]
		}, nil, "machine.processes[2].threads: 2 elements != 1 elements"},
		{"ignored key", func(_, got *session) { got.Machine.Coalesced = 7 }, []string{"machine.coalesced"}, ""},
		{"ignore is by full path", func(_, got *session) { got.Machine.Coalesced = 7 }, []string{"coalesced"},
			"machine.coalesced: 0 != 7"},
		{"first difference in key order", func(_, got *session) {
			got.Machine.Ticks = 101
			got.Machine.Coalesced = 7
		}, nil, "machine.coalesced: 0 != 7"},
		{"type mismatch", func(_, got *session) { got.Machine.Processes = nil }, nil,
			`machine.processes: [{"id":0,"threads":[{"instr_done":1}]},{"id":1,"threads":[{"instr_done":2}]},... != null`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, got := base(), base()
			tc.edit(&want, &got)
			if d := Diff(want, got, tc.ignore...); d != tc.want {
				t.Errorf("Diff = %q, want %q", d, tc.want)
			}
		})
	}
}
