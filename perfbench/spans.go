package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. All spans of one trial share its trial id; set-up spans use -1.
type span struct {
	trial  int
	parent int // index of the enclosing span in the same log, -1 for a root
	name   string
	start  int64 // ns since the log's epoch
	end    int64
}

// spanLog keeps one goroutine's spans in memory until the run ends. Logs
// that share an epoch have comparable times.
type spanLog struct {
	epoch time.Time
	trial int
	spans []span
}

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// begin opens a span under parent and returns its index.
func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{trial: l.trial, parent: parent, name: name, start: l.now()})
	return len(l.spans) - 1
}

// end closes the span begin returned.
func (l *spanLog) end(id int) { l.spans[id].end = l.now() }

// add records a span whose interval is already known: the benchmark sums
// observer time per slot-loop span and records the sums as children laid end
// to end from the parent's start.
func (l *spanLog) add(name string, parent int, start, end int64) {
	l.spans = append(l.spans, span{trial: l.trial, parent: parent, name: name, start: start, end: end})
}

// layer names the repository module a span's time belongs to: the part of
// its name before the first dot. The trial's root span belongs to no layer.
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return ""
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, k := range kids[i] {
			a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
		self[i] = (s.end - s.start) - union(iv)
	}
	return self
}

// union returns the total length covered by the intervals.
func union(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// writeSpans writes every log's spans as JSON lines, one span per line, ids
// numbered across logs.
func writeSpans(path string, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	base := 0
	for _, l := range logs {
		for i, s := range l.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + s.parent
			}
			fmt.Fprintf(w, "{\"trial\":%d,\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
				s.trial, base+i, parent, s.name, s.start, s.end)
		}
		base += len(l.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
