package scenario

// Strict mapping from the generic parsed tree (YAML or JSON) onto the
// Scenario struct: every field name is checked against the schema, every
// value against its type, and anything unknown is an error — a scenario
// that parses is a scenario whose every line means something.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Load reads, parses, normalizes and validates a scenario file. This is
// the one-call entry point cmd/cogsim and the CI matrix use.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Parse decodes scenario bytes — YAML by default, JSON when the document
// starts with '{' — into a Scenario, rejecting unknown fields and
// mistyped values. The result is not yet normalized or validated.
func Parse(data []byte) (*Scenario, error) {
	var (
		tree any
		err  error
	)
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		dec.UseNumber()
		if err = dec.Decode(&tree); err != nil {
			return nil, fmt.Errorf("scenario: bad JSON: %v", err)
		}
		tree = normalizeJSON(tree)
	} else {
		tree, err = parseYAML(data)
		if err != nil {
			return nil, fmt.Errorf("scenario: %v", err)
		}
	}
	root, ok := tree.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("scenario: document must be a mapping, got %s", typeName(tree))
	}
	sc := &Scenario{}
	d := &decoder{}
	d.decodeRoot(root, sc)
	if d.err != nil {
		return nil, d.err
	}
	return sc, nil
}

// normalizeJSON converts json.Number leaves to int64/float64 so JSON and
// YAML feed the decoder the same scalar types.
func normalizeJSON(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			x[k] = normalizeJSON(e)
		}
		return x
	case []any:
		for i, e := range x {
			x[i] = normalizeJSON(e)
		}
		return x
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return i
		}
		f, _ := x.Float64()
		return f
	default:
		return v
	}
}

// decoder walks the tree, recording the first error with its field path.
type decoder struct {
	err error
}

func (d *decoder) fail(path, format string, args ...any) {
	if d.err == nil {
		if path != "" {
			format = path + ": " + format
		}
		d.err = fmt.Errorf("scenario: "+format, args...)
	}
}

// section extracts a nested mapping field (nil when absent).
func (d *decoder) section(m map[string]any, path, key string) map[string]any {
	v, ok := m[key]
	if !ok || d.err != nil {
		return nil
	}
	sub, ok := v.(map[string]any)
	if !ok {
		d.fail(joinPath(path, key), "want a mapping, got %s", typeName(v))
		return nil
	}
	return sub
}

// checkUnknown rejects keys not consumed by the schema.
func (d *decoder) checkUnknown(m map[string]any, path string, known ...string) {
	if d.err != nil {
		return
	}
	var unknown []string
	for k := range m {
		found := false
		for _, want := range known {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		// Report the lexicographically first for a deterministic message.
		first := unknown[0]
		for _, k := range unknown[1:] {
			if k < first {
				first = k
			}
		}
		where := path
		if where == "" {
			where = "the top level"
		}
		d.fail("", "unknown field %q in %s", first, where)
	}
}

func (d *decoder) str(m map[string]any, path, key string) string {
	v, ok := m[key]
	if !ok || v == nil || d.err != nil {
		return ""
	}
	s, ok := v.(string)
	if !ok {
		d.fail(joinPath(path, key), "want a string, got %s", typeName(v))
		return ""
	}
	return s
}

func (d *decoder) integer(m map[string]any, path, key string) int {
	v, ok := m[key]
	if !ok || v == nil || d.err != nil {
		return 0
	}
	i, ok := v.(int64)
	if !ok {
		d.fail(joinPath(path, key), "want an integer, got %s", typeName(v))
		return 0
	}
	return int(i)
}

func (d *decoder) int64(m map[string]any, path, key string) int64 {
	v, ok := m[key]
	if !ok || v == nil || d.err != nil {
		return 0
	}
	i, ok := v.(int64)
	if !ok {
		d.fail(joinPath(path, key), "want an integer, got %s", typeName(v))
		return 0
	}
	return i
}

func (d *decoder) float(m map[string]any, path, key string) float64 {
	v, ok := m[key]
	if !ok || v == nil || d.err != nil {
		return 0
	}
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	default:
		d.fail(joinPath(path, key), "want a number, got %s", typeName(v))
		return 0
	}
}

func (d *decoder) boolean(m map[string]any, path, key string) bool {
	v, ok := m[key]
	if !ok || v == nil || d.err != nil {
		return false
	}
	b, ok := v.(bool)
	if !ok {
		d.fail(joinPath(path, key), "want true or false, got %s", typeName(v))
		return false
	}
	return b
}

func (d *decoder) intList(m map[string]any, path, key string) []int {
	v, ok := m[key]
	if !ok || v == nil || d.err != nil {
		return nil
	}
	seq, ok := v.([]any)
	if !ok {
		d.fail(joinPath(path, key), "want a list of integers, got %s", typeName(v))
		return nil
	}
	out := make([]int, len(seq))
	for i, e := range seq {
		n, ok := e.(int64)
		if !ok {
			d.fail(fmt.Sprintf("%s[%d]", joinPath(path, key), i), "want an integer, got %s", typeName(e))
			return nil
		}
		out[i] = int(n)
	}
	return out
}

func (d *decoder) decodeRoot(m map[string]any, sc *Scenario) {
	d.checkUnknown(m, "",
		"name", "description", "seed", "topology", "protocol", "engine",
		"limits", "recovery", "adversary", "experiment", "events", "assertions")
	sc.Name = d.str(m, "", "name")
	sc.Description = d.str(m, "", "description")
	sc.Seed = d.int64(m, "", "seed")

	if t := d.section(m, "", "topology"); t != nil {
		d.checkUnknown(t, "topology",
			"nodes", "channels_per_node", "min_overlap", "total_channels",
			"generator", "labels", "dynamic", "jam_strategy", "jam_budget")
		sc.Topology = Topology{
			Nodes:           d.integer(t, "topology", "nodes"),
			ChannelsPerNode: d.integer(t, "topology", "channels_per_node"),
			MinOverlap:      d.integer(t, "topology", "min_overlap"),
			TotalChannels:   d.integer(t, "topology", "total_channels"),
			Generator:       d.str(t, "topology", "generator"),
			Labels:          d.str(t, "topology", "labels"),
			Dynamic:         d.boolean(t, "topology", "dynamic"),
			JamStrategy:     d.str(t, "topology", "jam_strategy"),
			JamBudget:       d.integer(t, "topology", "jam_budget"),
		}
	}
	if p := d.section(m, "", "protocol"); p != nil {
		d.checkUnknown(p, "protocol",
			"name", "source", "payload", "aggregate", "rounds", "rumors",
			"max_slots", "curve")
		sc.Protocol = Protocol{
			Name:      d.str(p, "protocol", "name"),
			Source:    d.integer(p, "protocol", "source"),
			Payload:   d.str(p, "protocol", "payload"),
			Aggregate: d.str(p, "protocol", "aggregate"),
			Rounds:    d.integer(p, "protocol", "rounds"),
			Rumors:    d.integer(p, "protocol", "rumors"),
			MaxSlots:  d.integer(p, "protocol", "max_slots"),
			Curve:     d.boolean(p, "protocol", "curve"),
		}
	}
	if e := d.section(m, "", "engine"); e != nil {
		d.checkUnknown(e, "engine", "sparse", "parallel", "repeat", "check", "trace")
		sc.Engine = Engine{
			Sparse:   d.boolean(e, "engine", "sparse"),
			Parallel: d.integer(e, "engine", "parallel"),
			Repeat:   d.integer(e, "engine", "repeat"),
			Check:    d.boolean(e, "engine", "check"),
			Trace:    d.str(e, "engine", "trace"),
		}
	}
	if l := d.section(m, "", "limits"); l != nil {
		d.checkUnknown(l, "limits", "deadline", "max_slots")
		sc.Limits = Limits{
			Deadline: d.str(l, "limits", "deadline"),
			MaxSlots: d.integer(l, "limits", "max_slots"),
		}
	}
	if r := d.section(m, "", "recovery"); r != nil {
		d.checkUnknown(r, "recovery", "enabled", "outage_rate", "outage_duration", "max_retries")
		sc.Recovery = Recovery{
			Enabled:        d.boolean(r, "recovery", "enabled"),
			OutageRate:     d.float(r, "recovery", "outage_rate"),
			OutageDuration: d.integer(r, "recovery", "outage_duration"),
			MaxRetries:     d.integer(r, "recovery", "max_retries"),
		}
	}
	if a := d.section(m, "", "adversary"); a != nil {
		d.checkUnknown(a, "adversary", "strategy", "energy", "per_slot")
		sc.Adversary = Adversary{
			Strategy: d.str(a, "adversary", "strategy"),
			Energy:   d.integer(a, "adversary", "energy"),
			PerSlot:  d.integer(a, "adversary", "per_slot"),
		}
	}
	if x := d.section(m, "", "experiment"); x != nil {
		d.checkUnknown(x, "experiment", "id", "trials", "quick")
		sc.Experiment = Experiment{
			ID:     d.str(x, "experiment", "id"),
			Trials: d.integer(x, "experiment", "trials"),
			Quick:  d.boolean(x, "experiment", "quick"),
		}
	}
	sc.Events = d.decodeEvents(m)
	sc.Assertions = d.decodeAssertions(m)
}

func (d *decoder) decodeEvents(m map[string]any) []Event {
	v, ok := m["events"]
	if !ok || v == nil || d.err != nil {
		return nil
	}
	seq, ok := v.([]any)
	if !ok {
		d.fail("events", "want a list, got %s", typeName(v))
		return nil
	}
	out := make([]Event, 0, len(seq))
	for i, e := range seq {
		path := fmt.Sprintf("events[%d]", i)
		em, ok := e.(map[string]any)
		if !ok {
			d.fail(path, "want a mapping, got %s", typeName(e))
			return nil
		}
		d.checkUnknown(em, path,
			"kind", "at", "until", "rate", "duration", "group", "nodes",
			"strategy", "budget")
		out = append(out, Event{
			Kind:     d.str(em, path, "kind"),
			At:       d.integer(em, path, "at"),
			Until:    d.integer(em, path, "until"),
			Rate:     d.float(em, path, "rate"),
			Duration: d.integer(em, path, "duration"),
			Group:    d.integer(em, path, "group"),
			Nodes:    d.intList(em, path, "nodes"),
			Strategy: d.str(em, path, "strategy"),
			Budget:   d.integer(em, path, "budget"),
		})
		if d.err != nil {
			return nil
		}
	}
	return out
}

func (d *decoder) decodeAssertions(m map[string]any) []Assertion {
	v, ok := m["assertions"]
	if !ok || v == nil || d.err != nil {
		return nil
	}
	seq, ok := v.([]any)
	if !ok {
		d.fail("assertions", "want a list, got %s", typeName(v))
		return nil
	}
	out := make([]Assertion, 0, len(seq))
	for i, e := range seq {
		path := fmt.Sprintf("assertions[%d]", i)
		am, ok := e.(map[string]any)
		if !ok {
			d.fail(path, "want a mapping, got %s", typeName(e))
			return nil
		}
		d.checkUnknown(am, path, "kind", "slots", "value", "min_contributors")
		out = append(out, Assertion{
			Kind:            d.str(am, path, "kind"),
			Slots:           d.integer(am, path, "slots"),
			Value:           d.int64(am, path, "value"),
			MinContributors: d.integer(am, path, "min_contributors"),
		})
		if d.err != nil {
			return nil
		}
	}
	return out
}

func joinPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// typeName names a generic value's type in error messages.
func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case string:
		return "a string"
	case bool:
		return "a boolean"
	case int64:
		return "an integer"
	case float64:
		return "a number"
	case []any:
		return "a list"
	case map[string]any:
		return "a mapping"
	default:
		return strings.TrimPrefix(fmt.Sprintf("%T", v), "scenario.")
	}
}
