// Package stateeq is the one state equality of the determinism tests:
// two runs are equal when their captured states (sim.MachineState, or a
// snapshot.SessionState with the controllers' state) encode to the same
// JSON bytes. On a mismatch it names the first field that differs.
//
// It imports only the standard library, so the in-package tests of sim,
// daemon and sched can use it without an import cycle.
package stateeq

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Diff returns "" when want and got encode to the same JSON. Otherwise
// it returns the first differing path with want's value and then got's,
// e.g. "machine.processes[2].threads[0].instr_done: 1500000000 !=
// 1500000000.0000002". Object keys are walked in sorted order and array
// elements in index order. A key on one side only reads <absent> on the
// other, and arrays of different lengths report both lengths. Numbers
// compare as their encoded text, so integers above 2^53 (the
// power.Joules quanta) compare exactly.
//
// Each ignore entry is the full path of an object key, such as
// "machine.coalesced"; that key is skipped on both sides.
func Diff(want, got any, ignore ...string) string {
	wb, err := json.Marshal(want)
	if err != nil {
		return fmt.Sprintf("stateeq: encode want: %v", err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		return fmt.Sprintf("stateeq: encode got: %v", err)
	}
	if bytes.Equal(wb, gb) {
		return ""
	}
	wv, gv := decode(wb), decode(gb)
	skip := make(map[string]bool, len(ignore))
	for _, p := range ignore {
		skip[p] = true
	}
	return walk("", wv, gv, skip)
}

// decode parses what json.Marshal just produced, numbers as their text.
func decode(b []byte) any {
	d := json.NewDecoder(bytes.NewReader(b))
	d.UseNumber()
	var v any
	if err := d.Decode(&v); err != nil {
		panic(fmt.Sprintf("stateeq: decode of an encoding failed: %v", err))
	}
	return v
}

// walk returns the first difference at or below path, "" for none.
func walk(path string, want, got any, skip map[string]bool) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(w)+len(g))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if path != "" {
				p = path + "." + k
			}
			if skip[p] {
				continue
			}
			wv, wok := w[k]
			gv, gok := g[k]
			if !wok || !gok {
				return fmt.Sprintf("%s: %s != %s", p, show(wv, wok), show(gv, gok))
			}
			if d := walk(p, wv, gv, skip); d != "" {
				return d
			}
		}
		return ""
	case []any:
		g, ok := got.([]any)
		if !ok {
			break
		}
		if len(w) != len(g) {
			return fmt.Sprintf("%s: %d elements != %d elements", name(path), len(w), len(g))
		}
		for i := range w {
			if d := walk(fmt.Sprintf("%s[%d]", path, i), w[i], g[i], skip); d != "" {
				return d
			}
		}
		return ""
	}
	// Scalars (json.Number, string, bool, nil) compare with ==; a map or
	// slice reaching here differs from got in type, so == is false
	// without comparing the composite.
	if want == got {
		return ""
	}
	return fmt.Sprintf("%s: %s != %s", name(path), show(want, true), show(got, true))
}

// name is path, or "(root)" for the top-level value.
func name(path string) string {
	if path == "" {
		return "(root)"
	}
	return path
}

// show renders a decoded value as compact JSON, cut to 80 bytes.
func show(v any, present bool) string {
	if !present {
		return "<absent>"
	}
	b, _ := json.Marshal(v) // re-encoding decoded JSON cannot fail
	if len(b) > 80 {
		return string(b[:77]) + "..."
	}
	return string(b)
}
