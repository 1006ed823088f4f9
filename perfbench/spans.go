package main

import (
	"encoding/json"
	"fmt"
	"io"

	"grouter/internal/obs"
)

// spanCats are the span categories whose virtual time per request the traced
// run reports (the lanes the program records spans on).
var spanCats = []string{"request", "op", "flow", "transfer", "compute", "migrate"}

// spanStats summarises an exported obs trace.
type spanStats struct {
	spans int64
	// n counts spans and virtUS sums their durations in virtual
	// microseconds, by category.
	n      map[string]int64
	virtUS map[string]float64
}

// readSpans exports the tracers as one Chrome trace through a pipe and
// decodes it as it streams, so the export is never held in memory whole.
func readSpans(tracers []*obs.Tracer) (*spanStats, error) {
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := obs.ExportMerged(pw, tracers...)
		pw.CloseWithError(err)
		done <- err
	}()
	st, perr := decodeSpans(pr)
	// Drain whatever the decoder left so the exporter can finish.
	_, _ = io.Copy(io.Discard, pr)
	if err := <-done; err != nil {
		return nil, fmt.Errorf("export trace: %w", err)
	}
	if perr != nil {
		return nil, fmt.Errorf("decode trace: %w", perr)
	}
	return st, nil
}

func decodeSpans(r io.Reader) (*spanStats, error) {
	st := &spanStats{n: map[string]int64{}, virtUS: map[string]float64{}}
	dec := json.NewDecoder(r)
	// {"traceEvents":[ ... ],"displayTimeUnit":"ms"}
	for _, want := range []any{json.Delim('{'), "traceEvents", json.Delim('[')} {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		if tok != want {
			return nil, fmt.Errorf("unexpected token %v, want %v", tok, want)
		}
	}
	var ev struct {
		Cat string  `json:"cat"`
		Ph  string  `json:"ph"`
		Dur float64 `json:"dur"`
	}
	for dec.More() {
		ev.Cat, ev.Ph, ev.Dur = "", "", 0
		if err := dec.Decode(&ev); err != nil {
			return nil, err
		}
		if ev.Ph != "X" {
			continue
		}
		st.spans++
		st.n[ev.Cat]++
		st.virtUS[ev.Cat] += ev.Dur
	}
	return st, nil
}
