package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "trial", parent: -1, start: 0, end: 100},
		{name: "a.x", parent: 0, start: 10, end: 40},
		{name: "b.y", parent: 0, start: 30, end: 60}, // overlaps a.x by 10
		{name: "c.z", parent: 2, start: 35, end: 45},
		{name: "d.w", parent: 0, start: 90, end: 120}, // runs past its parent
		{name: "e.v", parent: 0, start: 70, end: 70},
	}
	got := selfTimes(spans)
	// trial: 100 less the union [10,60) and [90,100) = 40.
	want := []int64{40, 30, 20, 10, 30, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestSelfTimesSumToRootWhenChildrenNest(t *testing.T) {
	l := &spanLog{}
	l.spans = []span{
		{name: "trial", parent: -1, start: 0, end: 1000},
		{name: "sim.phase1", parent: 0, start: 100, end: 600},
		{name: "cogcomp.prepare", parent: 0, start: 0, end: 100},
	}
	// Observer sums laid end to end inside the phase, as the traced run
	// records them.
	l.add("trace.record", 1, 100, 250)
	l.add("invariant.check", 1, 250, 300)
	var total int64
	for _, s := range selfTimes(l.spans) {
		total += s
	}
	if total != 1000 {
		t.Fatalf("self times sum to %d, want the root's 1000", total)
	}
	st := sumSpans([]*spanLog{l})
	for layer, want := range map[string]int64{"": 400, "sim": 300, "cogcomp": 100, "trace": 150, "invariant": 50} {
		if st.self[layer] != want {
			t.Errorf("layer %q self = %d, want %d", layer, st.self[layer], want)
		}
	}
}

func TestLayer(t *testing.T) {
	for name, want := range map[string]string{
		"trial": "", "sim.phase2": "sim", "assign.build": "assign", "invariant.check": "invariant",
	} {
		if got := layer(name); got != want {
			t.Errorf("layer(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestWriteSpansNumbersAcrossLogs(t *testing.T) {
	a := &spanLog{trial: -1}
	a.add("assign.build", -1, 0, 5)
	b := &spanLog{trial: 7}
	root := b.begin("trial", -1)
	b.end(b.begin("sim.slots", root))
	b.end(root)
	path := filepath.Join(t.TempDir(), "spans", "x.jsonl")
	if err := writeSpans(path, []*spanLog{a, b}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct {
		Trial, ID, Parent int
		Name              string
	}
	var got []line
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		got = append(got, l)
	}
	want := []line{{-1, 0, -1, "assign.build"}, {7, 1, -1, "trial"}, {7, 2, 1, "sim.slots"}}
	if len(got) != len(want) {
		t.Fatalf("got %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
