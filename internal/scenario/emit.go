package scenario

// Emit renders the canonical YAML form of a normalized scenario: fixed
// field order, defaults materialized, variant-inapplicable fields and
// empty sections omitted. parse → Normalize → Emit is a fixed point,
// which the golden round-trip tests pin; `cogsim validate -canonical`
// prints it so hand-written files can be normalized mechanically.

import (
	"fmt"
	"strconv"
	"strings"
)

// Emit renders the scenario as canonical YAML. The receiver should be
// normalized; Emit writes fields as they are without filling defaults.
func (sc *Scenario) Emit() []byte {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	w("name: %s\n", emitString(sc.Name))
	if sc.Description != "" {
		w("description: %s\n", emitString(sc.Description))
	}
	w("seed: %d\n", sc.Seed)

	experiment := sc.Protocol.Name == "experiment"
	if !experiment {
		t := sc.Topology
		w("topology:\n")
		w("  nodes: %d\n", t.Nodes)
		w("  channels_per_node: %d\n", t.ChannelsPerNode)
		if t.Generator != "jammed" {
			w("  min_overlap: %d\n", t.MinOverlap)
			w("  total_channels: %d\n", t.TotalChannels)
		}
		w("  generator: %s\n", emitString(t.Generator))
		w("  labels: %s\n", emitString(t.Labels))
		if t.Generator == "jammed" {
			// A reactive adversary owns the jammer; the oblivious fields
			// stay unset and unrendered.
			if t.JamStrategy != "" {
				w("  jam_strategy: %s\n", emitString(t.JamStrategy))
				w("  jam_budget: %d\n", t.JamBudget)
			}
		} else {
			w("  dynamic: %v\n", t.Dynamic)
		}
	}

	p := sc.Protocol
	w("protocol:\n")
	w("  name: %s\n", emitString(p.Name))
	if !experiment {
		w("  source: %d\n", p.Source)
		w("  payload: %s\n", emitString(p.Payload))
		w("  aggregate: %s\n", emitString(p.Aggregate))
		w("  rounds: %d\n", p.Rounds)
		w("  rumors: %d\n", p.Rumors)
		w("  max_slots: %d\n", p.MaxSlots)
		w("  curve: %v\n", p.Curve)
	}

	e := sc.Engine
	w("engine:\n")
	w("  sparse: %v\n", e.Sparse)
	w("  parallel: %d\n", e.Parallel)
	w("  repeat: %d\n", e.Repeat)
	w("  check: %v\n", e.Check)
	if e.Trace != "" {
		w("  trace: %s\n", emitString(e.Trace))
	}

	if l := sc.Limits; l != (Limits{}) {
		w("limits:\n")
		if l.Deadline != "" {
			w("  deadline: %s\n", emitString(l.Deadline))
		}
		if l.MaxSlots != 0 {
			w("  max_slots: %d\n", l.MaxSlots)
		}
	}

	r := sc.Recovery
	if r.Enabled {
		w("recovery:\n")
		w("  enabled: true\n")
		if !experiment {
			w("  outage_rate: %s\n", emitFloat(r.OutageRate))
			w("  outage_duration: %d\n", r.OutageDuration)
			w("  max_retries: %d\n", r.MaxRetries)
		}
	}

	if a := sc.Adversary; a.Strategy != "" {
		w("adversary:\n")
		w("  strategy: %s\n", emitString(a.Strategy))
		w("  energy: %d\n", a.Energy)
		w("  per_slot: %d\n", a.PerSlot)
	}

	if experiment {
		x := sc.Experiment
		w("experiment:\n")
		w("  id: %s\n", emitString(x.ID))
		w("  trials: %d\n", x.Trials)
		w("  quick: %v\n", x.Quick)
	}

	if len(sc.Events) > 0 {
		w("events:\n")
		for _, ev := range sc.Events {
			w("  - kind: %s\n", emitString(ev.Kind))
			w("    at: %d\n", ev.At)
			switch ev.Kind {
			case EvRandomOutages, EvCorrelatedOutages:
				w("    until: %d\n", ev.Until)
				w("    rate: %s\n", emitFloat(ev.Rate))
				w("    duration: %d\n", ev.Duration)
				if ev.Kind == EvCorrelatedOutages {
					w("    group: %d\n", ev.Group)
				}
			case EvBlackout:
				w("    until: %d\n", ev.Until)
				w("    nodes: %s\n", emitIntList(ev.Nodes))
			case EvJamSwitch:
				w("    strategy: %s\n", emitString(ev.Strategy))
				w("    budget: %d\n", ev.Budget)
			}
		}
	}

	if len(sc.Assertions) > 0 {
		w("assertions:\n")
		for _, a := range sc.Assertions {
			w("  - kind: %s\n", emitString(a.Kind))
			switch a.Kind {
			case AsCompletedBy:
				w("    slots: %d\n", a.Slots)
			case AsDegradedCensus:
				w("    min_contributors: %d\n", a.MinContributors)
			case AsMaxRetries, AsMaxReelections, AsMaxRestarts, AsValueEquals:
				w("    value: %d\n", a.Value)
			}
		}
	}

	return []byte(b.String())
}

// emitString quotes s only when the plain form would not round-trip.
func emitString(s string) string {
	if plainScalarSafe(s) {
		return s
	}
	return strconv.Quote(s)
}

// plainScalarSafe reports whether s parses back to itself as a plain
// YAML scalar in our subset.
func plainScalarSafe(s string) bool {
	if s == "" || s == "null" || s == "~" || s == "true" || s == "false" {
		return false
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return false
	}
	if strings.HasPrefix(s, " ") || strings.HasSuffix(s, " ") {
		return false
	}
	switch s[0] {
	case '[', '{', '\'', '"', '&', '*', '!', '|', '>', '-', '#':
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c == 0x7f {
			return false
		}
		switch c {
		case ':':
			if i+1 == len(s) || s[i+1] == ' ' {
				return false
			}
		case '#':
			if i > 0 && s[i-1] == ' ' {
				return false
			}
		}
	}
	return true
}

// emitFloat renders a float so parseScalar reads it back as a float64
// with the identical value.
func emitFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// emitIntList renders a flow list like [3, 4, 5].
func emitIntList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
