package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

func TestCogcastRun(t *testing.T) {
	out := runOK(t, "-protocol", "cogcast", "-n", "24", "-c", "6", "-k", "2")
	if !strings.Contains(out, "cogcast:") || !strings.Contains(out, "all informed: true") {
		t.Errorf("output = %q", out)
	}
}

func TestCogcompRun(t *testing.T) {
	out := runOK(t, "-protocol", "cogcomp", "-n", "16", "-c", "4", "-k", "2", "-agg", "stats")
	if !strings.Contains(out, "cogcomp:") || !strings.Contains(out, "stats =") {
		t.Errorf("output = %q", out)
	}
}

func TestRendezvousRun(t *testing.T) {
	out := runOK(t, "-protocol", "rendezvous", "-n", "12", "-c", "4", "-k", "2")
	if !strings.Contains(out, "rendezvous broadcast:") {
		t.Errorf("output = %q", out)
	}
}

func TestRendezvousAggRun(t *testing.T) {
	out := runOK(t, "-protocol", "rendezvous-agg", "-n", "8", "-c", "4", "-k", "2")
	if !strings.Contains(out, "rendezvous aggregation:") {
		t.Errorf("output = %q", out)
	}
}

func TestHopRun(t *testing.T) {
	out := runOK(t, "-protocol", "hop", "-n", "6", "-c", "4", "-k", "2",
		"-topology", "partitioned", "-labels", "global")
	if !strings.Contains(out, "hopping-together:") {
		t.Errorf("output = %q", out)
	}
}

func TestJammedRun(t *testing.T) {
	out := runOK(t, "-protocol", "cogcast", "-jam", "random", "-jamk", "2", "-n", "12", "-c", "8")
	if !strings.Contains(out, "dynamic=true") || !strings.Contains(out, "all informed: true") {
		t.Errorf("output = %q", out)
	}
}

func TestEveryTopologyFlag(t *testing.T) {
	for _, topo := range []string{"full", "partitioned", "shared-core", "random-pool"} {
		args := []string{"-protocol", "cogcast", "-n", "8", "-c", "6", "-k", "2", "-topology", topo}
		if topo == "random-pool" {
			args = append(args, "-C", "12")
		}
		out := runOK(t, args...)
		if !strings.Contains(out, "network:") {
			t.Errorf("%s: output = %q", topo, out)
		}
	}
	// Pairwise needs c >= k(n-1).
	out := runOK(t, "-protocol", "cogcast", "-n", "4", "-c", "6", "-k", "2", "-topology", "pairwise")
	if !strings.Contains(out, "network:") {
		t.Errorf("pairwise: output = %q", out)
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-protocol", "warp-drive"},
		{"-topology", "moebius"},
		{"-labels", "esperanto"},
		{"-jam", "nuke", "-jamk", "1"},
		{"-n", "4", "-c", "2", "-k", "5"},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestSessionRun(t *testing.T) {
	out := runOK(t, "-protocol", "session", "-n", "16", "-c", "4", "-k", "2", "-rounds", "2")
	if !strings.Contains(out, "session: 2 rounds") || !strings.Contains(out, "round 2:") {
		t.Errorf("output = %q", out)
	}
}

func TestGossipRun(t *testing.T) {
	out := runOK(t, "-protocol", "gossip", "-n", "16", "-c", "4", "-k", "2", "-rumors", "3")
	if !strings.Contains(out, "gossip: 3 rumors") || !strings.Contains(out, "complete: true") {
		t.Errorf("output = %q", out)
	}
}

func TestRepeatSummary(t *testing.T) {
	out := runOK(t, "-protocol", "cogcast", "-n", "24", "-c", "6", "-k", "2", "-repeat", "8")
	if !strings.Contains(out, "cogcast x8: slots min") {
		t.Errorf("output = %q", out)
	}
	for _, rep := range []string{"rep 0 seed=", "rep 7 seed="} {
		if !strings.Contains(out, rep) {
			t.Errorf("missing per-repetition line %q in %q", rep, out)
		}
	}
}

func TestRepeatParallelIdentical(t *testing.T) {
	args := func(workers string) []string {
		return []string{"-protocol", "cogcomp", "-n", "16", "-c", "4", "-k", "2",
			"-repeat", "6", "-parallel", workers}
	}
	serial := runOK(t, args("1")...)
	par := runOK(t, args("4")...)
	if serial != par {
		t.Errorf("repeat summary differs across worker counts:\nserial: %q\nparallel: %q", serial, par)
	}
}

func TestRepeatUnsupportedProtocol(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "gossip", "-n", "16", "-c", "4", "-k", "2", "-repeat", "4"}, &out); err == nil {
		t.Error("gossip -repeat accepted")
	}
}

// mediumLineOf extracts the "medium: ..." line from cogsim output.
func mediumLineOf(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "medium: ") {
			return line
		}
	}
	t.Fatalf("no medium line in %q", out)
	return ""
}

func TestTraceSummaryMatchesLiveRun(t *testing.T) {
	path := t.TempDir() + "/run.jsonl"
	live := runOK(t, "-protocol", "cogcast", "-n", "24", "-c", "6", "-k", "2",
		"-seed", "7", "-trace", path)
	replay := runOK(t, "-trace-summary", path)
	if lm, rm := mediumLineOf(t, live), mediumLineOf(t, replay); lm != rm {
		t.Errorf("medium line diverged:\nlive:   %q\nreplay: %q", lm, rm)
	}
	if !strings.Contains(replay, "informed: 24/24") {
		t.Errorf("summary output = %q", replay)
	}
}

func TestTraceCogcomp(t *testing.T) {
	path := t.TempDir() + "/agg.jsonl"
	runOK(t, "-protocol", "cogcomp", "-n", "16", "-c", "4", "-k", "2", "-trace", path)
	replay := runOK(t, "-trace-summary", path)
	if !strings.Contains(replay, "protocol=cogcomp") || !strings.Contains(replay, "phase 4:") {
		t.Errorf("summary output = %q", replay)
	}
}

func TestTraceFlagErrors(t *testing.T) {
	var out bytes.Buffer
	path := t.TempDir() + "/x.jsonl"
	cases := [][]string{
		{"-protocol", "gossip", "-trace", path},
		{"-protocol", "cogcast", "-repeat", "4", "-trace", path},
		{"-trace-summary", t.TempDir() + "/missing.jsonl"},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	runOK(t, "-protocol", "cogcast", "-n", "12", "-c", "4", "-k", "2",
		"-cpuprofile", dir+"/cpu.pprof", "-memprofile", dir+"/mem.pprof")
	for _, p := range []string{dir + "/cpu.pprof", dir + "/mem.pprof"} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestCurveFlag(t *testing.T) {
	out := runOK(t, "-protocol", "cogcast", "-n", "24", "-c", "6", "-k", "2", "-curve")
	if !strings.Contains(out, "epidemic:") {
		t.Errorf("output = %q", out)
	}
}

func TestCheckFlag(t *testing.T) {
	// Output under the oracle must be byte-identical to an unchecked run.
	base := []string{"-protocol", "cogcast", "-n", "24", "-c", "6", "-k", "2"}
	plain := runOK(t, base...)
	checked := runOK(t, append([]string{"-check"}, base...)...)
	if plain != checked {
		t.Errorf("-check changed output:\n--- checked ---\n%s--- plain ---\n%s", checked, plain)
	}

	out := runOK(t, "-check", "-protocol", "cogcomp", "-n", "16", "-c", "4", "-k", "2", "-agg", "stats")
	if !strings.Contains(out, "cogcomp:") {
		t.Errorf("checked cogcomp output = %q", out)
	}
	out = runOK(t, "-check", "-protocol", "session", "-n", "16", "-c", "4", "-k", "2", "-rounds", "2")
	if !strings.Contains(out, "session: 2 rounds") {
		t.Errorf("checked session output = %q", out)
	}
	out = runOK(t, "-check", "-protocol", "cogcast", "-n", "16", "-c", "4", "-k", "2", "-repeat", "4")
	if !strings.Contains(out, "cogcast x4:") {
		t.Errorf("checked repeat output = %q", out)
	}

	var buf bytes.Buffer
	err := run([]string{"-check", "-protocol", "gossip"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-check supports") {
		t.Errorf("-check with gossip: err = %v", err)
	}
}

func TestCogcompRecoverRun(t *testing.T) {
	out := runOK(t, "-protocol", "cogcomp", "-n", "16", "-c", "4", "-k", "2", "-recover")
	if !strings.Contains(out, "recovery: contributors 16/16") || !strings.Contains(out, "retries 0") {
		t.Errorf("output = %q", out)
	}
	out = runOK(t, "-protocol", "cogcomp", "-n", "20", "-c", "5", "-k", "2",
		"-recover", "-outage", "0.003", "-seed", "3", "-check")
	if !strings.Contains(out, "recovery: contributors") {
		t.Errorf("output = %q", out)
	}
}

func TestBlockJamRun(t *testing.T) {
	out := runOK(t, "-protocol", "cogcast", "-jam", "block", "-jamk", "2", "-n", "12", "-c", "8")
	if !strings.Contains(out, "all informed: true") {
		t.Errorf("output = %q", out)
	}
}

func TestRecoverFlagErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-protocol", "cogcast", "-recover"},
		{"-protocol", "cogcomp", "-outage", "0.01"},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestAdversaryRun(t *testing.T) {
	jam := runOK(t, "-adversary", "busiest", "-energy", "120", "-n", "32", "-c", "12")
	if !strings.Contains(jam, "all informed: true") || !strings.Contains(jam, "adversary: busiest spent") {
		t.Errorf("reactive jam output = %q", jam)
	}
	crash := runOK(t, "-protocol", "cogcomp", "-recover", "-adversary", "crasher", "-energy", "60", "-n", "32")
	if !strings.Contains(crash, "adversary: crasher spent") {
		t.Errorf("reactive crash output = %q", crash)
	}
}

func TestAdversaryTraceSummary(t *testing.T) {
	path := t.TempDir() + "/adv.jsonl"
	runOK(t, "-adversary", "busiest", "-energy", "120", "-n", "32", "-c", "12", "-trace", path)
	replay := runOK(t, "-trace-summary", path)
	if !strings.Contains(replay, " adv=") {
		t.Errorf("summary has no adv event count: %q", replay)
	}
}

func TestAdversaryFlagErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-adversary", "busiest", "-jam", "random"},
		{"-protocol", "cogcomp", "-adversary", "crasher", "-energy", "10"},
		{"-protocol", "gossip", "-adversary", "busiest", "-energy", "10"},
		{"-adversary", "crasher", "-energy", "10"},
		{"-adversary", "nuke", "-energy", "10"},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
