package export

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"avfs/internal/telemetry"
)

// JSONL streams decision-trace events as one JSON object per line. It is
// safe to attach as a tracer subscriber; encoding errors are latched (the
// stream is best-effort — a full disk must not take the daemon down) and
// reported by Err.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	bw  *bufio.Writer
	err error
}

// NewJSONL creates a JSONL sink over w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{enc: json.NewEncoder(bw), bw: bw}
}

// Write renders one record and encodes it as a line.
func (j *JSONL) Write(r telemetry.Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(r.Decision())
}

// Attach subscribes the sink to a tracer.
func (j *JSONL) Attach(tr *telemetry.Tracer) { tr.Subscribe(j.Write) }

// Flush pushes buffered lines to the underlying writer.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.bw.Flush()
	return j.err
}

// Err returns the first error the sink hit, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ReadJSONL decodes a decision-trace stream back into events — the
// consumer side for tests and offline analysis of dumped traces.
func ReadJSONL(r io.Reader) ([]telemetry.Decision, error) {
	dec := json.NewDecoder(r)
	var out []telemetry.Decision
	for {
		var d telemetry.Decision
		if err := dec.Decode(&d); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, d)
	}
}
