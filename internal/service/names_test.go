package service

import (
	"fmt"
	"strings"
	"testing"

	"avfs/api"
	"avfs/internal/telemetry"
)

// TestRegisteredNamesMatchFmt pins the canonical name of every metric a
// fresh X-Gene 2 and X-Gene 3 session and the fleet register to the
// fmt rendering name{k=%q,...}.
func TestRegisteredNamesMatchFmt(t *testing.T) {
	f, _ := testFleet(t, Config{})
	regs := []*telemetry.Registry{f.Registry()}
	for _, model := range []string{"xgene2", "xgene3"} {
		sess := mustCreate(t, f, api.CreateSessionRequest{Model: model})
		s, err := f.lookup(sess.ID)
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, s.reg)
	}
	labelled := 0
	for _, reg := range regs {
		for _, sm := range reg.Gather() {
			want := sm.Name
			if len(sm.Labels) > 0 {
				parts := make([]string, len(sm.Labels))
				for i, l := range sm.Labels {
					parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
				}
				want += "{" + strings.Join(parts, ",") + "}"
				labelled++
			}
			if sm.Full != want {
				t.Errorf("registered name %q, fmt renders %q", sm.Full, want)
			}
		}
	}
	if labelled == 0 {
		t.Fatal("no labelled metric registered; the pin checks nothing")
	}
}
