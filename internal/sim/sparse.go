package sim

// Event-driven ("sparse") stepping. WithSparse lets the engine skip Step
// calls for nodes that declared themselves dormant through Action.Sleep
// hints, so a slot costs O(awake + deliveries) instead of Θ(n). The mode
// exists for long quiescent phases — COGCOMP's sequential census leaves
// almost every node silently parked for Θ(n) slots — and it is gated so
// that sparse executions are byte-identical to dense ones:
//
//   - Dormant nodes draw no RNG and change no state (the Action.Sleep
//     contract), so the engine's tie-break stream and every per-node
//     stream advance exactly as they would densely.
//   - Parked listeners stay in their channel's delivery set: any broadcast
//     there reaches them through the same node-ascending order the dense
//     bucket would have produced, and re-wakes them eagerly — the next
//     slot steps them again.
//   - Sparse engages only when no Observer is attached (an observer must
//     see silent listen-only channels the sparse scan never materializes)
//     and the assignment is slot-invariant (SlotInvariantAssignment).
//     Anything else silently runs dense, which is always correct.
//
// The wake queue is a binary min-heap over packed (slot, node) entries
// plus per-channel parked-listener lists; all of it is pre-sized at Reset,
// so a warm sparse slot allocates nothing.

import (
	"fmt"
	"slices"
)

// WakeAuditor observes the sparse engine's scheduling decisions so an
// external oracle (package invariant) can cross-check wake-queue
// consistency: no dormant node acts, every delivery wakes, no awake node
// is skipped. It is consulted only when sparse stepping is engaged;
// attaching one does not change the execution. An EndSlot error aborts the
// run like a protocol error would.
type WakeAuditor interface {
	// OnStep reports that node was stepped this slot and returned act.
	OnStep(slot int, node NodeID, act Action)
	// OnDeliver reports a delivery to node this slot (which re-wakes it).
	OnDeliver(slot int, node NodeID)
	// OnRetire reports that node's Done became true and it left the
	// active set for good.
	OnRetire(slot int, node NodeID)
	// EndSlot closes the slot; a non-nil error fails the run.
	EndSlot(slot int) error
}

// WithSparse requests event-driven stepping: the engine honors Action.Sleep
// dormancy hints and scans only awake nodes each slot. Executions are
// byte-identical to the dense engine — transcripts, RNG draw order, error
// strings and traces included — because dormant nodes neither act nor draw
// randomness and every delivery re-wakes its target. The engine silently
// falls back to dense stepping when an Observer is attached or the
// assignment is not slot-invariant; Sparse() reports the effective mode.
func WithSparse() Option {
	return func(e *Engine) { e.sparseReq = true }
}

// WithWakeAudit attaches a wake-queue auditor (active only while sparse
// stepping is engaged; see WakeAuditor). Unlike WithObserver it does not
// force dense stepping — it exists precisely to audit the sparse scan.
func WithWakeAudit(a WakeAuditor) Option {
	return func(e *Engine) { e.audit = a }
}

// Wake-heap entries pack (wake slot << wakeNodeBits) | node into an int64,
// so heap order is slot-major with node-ascending ties — deterministic.
const (
	wakeNodeBits   = 22
	wakeNodeMask   = 1<<wakeNodeBits - 1
	maxSparseNodes = 1 << wakeNodeBits
)

// sparseState is the wake-queue bookkeeping of the event-driven scan. All
// slices are pre-sized by configureSparse and reused across slots and
// Resets.
type sparseState struct {
	on      bool // sparse stepping engaged (after gating)
	notDone int  // nodes whose Done has not been observed true

	awake     []int32 // sorted ids stepped every slot
	awakeNext []int32 // next slot's awake list (scratch)
	woken     []int32 // ids re-woken this slot (timers + deliveries)

	retired     []bool  // per node: Done observed (counted out of notDone)
	wakeAt      []int64 // per node: pending heap entry, -1 = none
	pushed      []int64 // per node: last entry pushed and not yet popped
	parkedPhys  []int32 // per node: phys channel while park-listening, -1 = not parked
	parkedAt    []int   // per node: slot of the last parkListen
	parkedQuiet []bool  // per node: the park is delivery-proof (Action.Quiet)

	heap        []int64   // binary min-heap of packed wake entries
	newlyParked []int32   // listeners parked this slot, committed after phase B
	parked      [][]int32 // phys channel -> parked listeners (sorted unless dirty)
	parkedDirty []bool    // phys channel -> parked list needs sorting
	parkedSeen  []bool    // phys channel -> appears in parkedTouched
	parkedTouch []int     // channels with parked entries since Reset
	lscratch    []NodeID  // merged live+parked listener scratch
}

// Sparse reports whether event-driven stepping is engaged: WithSparse was
// requested and survived gating (no observer, slot-invariant assignment).
func (e *Engine) Sparse() bool { return e.sp.on }

// configureSparse resolves the requested sparse mode against its gates and
// (re)builds the wake-queue state.
func (e *Engine) configureSparse() {
	sp := &e.sp
	on := e.sparseReq && e.obs == nil && len(e.nodes) < maxSparseNodes
	if on {
		si, ok := e.asn.(SlotInvariantAssignment)
		on = ok && si.SlotInvariantChannelSet()
	}
	sp.on = on
	if !on {
		return
	}
	n := len(e.nodes)
	if cap(sp.awake) < n {
		sp.awake = make([]int32, 0, n)
	}
	if cap(sp.awakeNext) < n {
		sp.awakeNext = make([]int32, 0, n)
	}
	if cap(sp.woken) < n {
		sp.woken = make([]int32, 0, n)
	}
	if cap(sp.newlyParked) < n {
		sp.newlyParked = make([]int32, 0, n)
	}
	if cap(sp.heap) < n {
		sp.heap = make([]int64, 0, n)
	}
	if cap(sp.lscratch) < n {
		sp.lscratch = make([]NodeID, 0, n)
	}
	if cap(sp.retired) < n {
		sp.retired = make([]bool, n)
		sp.wakeAt = make([]int64, n)
		sp.pushed = make([]int64, n)
		sp.parkedPhys = make([]int32, n)
		sp.parkedAt = make([]int, n)
		sp.parkedQuiet = make([]bool, n)
	}
	sp.retired = sp.retired[:n]
	sp.wakeAt = sp.wakeAt[:n]
	sp.pushed = sp.pushed[:n]
	sp.parkedPhys = sp.parkedPhys[:n]
	sp.parkedAt = sp.parkedAt[:n]
	sp.parkedQuiet = sp.parkedQuiet[:n]
	sp.awake = sp.awake[:0]
	sp.woken = sp.woken[:0]
	sp.newlyParked = sp.newlyParked[:0]
	sp.heap = sp.heap[:0]
	sp.notDone = 0
	for i, p := range e.nodes {
		done := p.Done()
		sp.awake = append(sp.awake, int32(i))
		sp.retired[i] = done
		if !done {
			sp.notDone++
		}
		sp.wakeAt[i] = -1
		sp.pushed[i] = -1
		sp.parkedPhys[i] = -1
		sp.parkedAt[i] = -1
		sp.parkedQuiet[i] = false
	}
	for _, ch := range sp.parkedTouch {
		sp.parked[ch] = sp.parked[ch][:0]
		sp.parkedDirty[ch] = false
		sp.parkedSeen[ch] = false
	}
	sp.parkedTouch = sp.parkedTouch[:0]
	e.growParked(len(e.bcast))
}

// growParked extends the per-channel parked-listener scratch alongside the
// dense channel scratch. Kept separate from growScratch so dense engines
// over huge channel spaces pay nothing for it.
func (e *Engine) growParked(n int) {
	sp := &e.sp
	if short := n - len(sp.parked); short > 0 {
		sp.parked = append(sp.parked, make([][]int32, short)...)
		sp.parkedDirty = append(sp.parkedDirty, make([]bool, short)...)
		sp.parkedSeen = append(sp.parkedSeen, make([]bool, short)...)
	}
}

// runSlotSparse is RunSlot's event-driven body: wake due timers, step the
// awake set, resolve only channels with live broadcasters, re-wake every
// parked listener that heard something.
func (e *Engine) runSlotSparse(slot int) error {
	broadcasts, maxCh, err := e.scanSparse(slot)
	if err != nil {
		return err
	}
	if broadcasts > 0 {
		for ch := 0; ch <= maxCh; ch++ {
			if !e.touched[ch] {
				continue
			}
			if len(e.bcast[ch]) == 0 {
				continue
			}
			e.resolveSparse(slot, ch)
		}
	}
	e.commitParked()
	if e.audit != nil {
		return e.audit.EndSlot(slot)
	}
	return nil
}

// scanSparse is the event-driven phase-A scan: merge the standing awake
// list with this slot's re-woken nodes in ascending node order and step
// exactly those, validating and bucketing as scanSerial does. Dormant
// nodes were validated when they parked and their (unchanged, per the
// Sleep contract) actions stay valid under a slot-invariant assignment, so
// the first failing node among awake nodes is the first failing node
// overall — error strings match the dense scan's.
func (e *Engine) scanSparse(slot int) (broadcasts, maxCh int, err error) {
	sp := &e.sp
	for len(sp.heap) > 0 {
		top := sp.heap[0]
		if int(top>>wakeNodeBits) > slot {
			break
		}
		e.popWake()
		v := int32(top & wakeNodeMask)
		if sp.pushed[v] == top {
			sp.pushed[v] = -1
		}
		if sp.wakeAt[v] == top {
			e.wakeNode(v)
		}
	}
	wk := sp.woken
	slices.Sort(wk)
	aw := sp.awake
	next := sp.awakeNext[:0]
	maxCh = -1
	i, j := 0, 0
	for i < len(aw) || j < len(wk) {
		var v int32
		if j >= len(wk) || (i < len(aw) && aw[i] < wk[j]) {
			v = aw[i]
			i++
		} else {
			v = wk[j]
			j++
		}
		if sp.retired[v] {
			continue
		}
		p := e.nodes[v]
		if p.Done() {
			e.retireNode(slot, v)
			continue
		}
		act := p.Step(slot)
		e.acts[v] = act
		if e.audit != nil {
			e.audit.OnStep(slot, NodeID(v), act)
		}
		live := true
		if p.Done() {
			// Done flipped inside Step: the action still resolves this
			// slot (the dense engine steps first and skips only from the
			// next slot on), but the node leaves the active set now.
			e.retireNode(slot, v)
			live = false
		}
		if act.Op == OpIdle {
			if live {
				if act.Sleep > 0 {
					e.parkIdle(v, slot, act.Sleep)
				} else {
					next = append(next, v)
				}
			}
			continue
		}
		set := e.asn.ChannelSet(NodeID(v), slot)
		if act.Channel < 0 || act.Channel >= len(set) {
			return 0, 0, fmt.Errorf("sim: slot %d: node %d chose local channel %d outside [0,%d)",
				slot, v, act.Channel, len(set))
		}
		phys := set[act.Channel]
		if phys < 0 {
			return 0, 0, fmt.Errorf("sim: slot %d: assignment mapped node %d to negative physical channel %d", slot, v, phys)
		}
		if phys >= len(e.bcast) {
			e.growScratch(phys + 1)
		}
		if !e.touched[phys] {
			e.touched[phys] = true
			e.active = append(e.active, phys)
		}
		if phys > maxCh {
			maxCh = phys
		}
		switch act.Op {
		case OpListen:
			e.listen[phys] = append(e.listen[phys], NodeID(v))
			if live {
				if act.Sleep > 0 {
					e.parkListen(v, phys, slot, act.Sleep, act.Quiet)
				} else {
					next = append(next, v)
				}
			}
		case OpBroadcast:
			e.bcast[phys] = append(e.bcast[phys], NodeID(v))
			broadcasts++
			if live {
				next = append(next, v)
			}
		default:
			return 0, 0, fmt.Errorf("sim: slot %d: node %d produced invalid op %d", slot, v, act.Op)
		}
	}
	sp.awake, sp.awakeNext = next, sp.awake
	sp.woken = sp.woken[:0]
	return broadcasts, maxCh, nil
}

// resolveSparse resolves one channel with live broadcasters: the winner
// draw and broadcaster feedback are exactly the dense engine's (dormant
// nodes never broadcast, so the broadcaster set is identical), and
// listeners merge the live bucket with the channel's parked list in
// node-ascending order — the order the dense bucket would have held. Every
// parked listener that heard something is re-woken.
func (e *Engine) resolveSparse(slot, ch int) {
	sp := &e.sp
	bs := e.bcast[ch]
	ls := e.mergedListeners(ch, e.compactParked(slot, ch))
	switch e.collisions {
	case AllDelivered:
		for _, b := range bs {
			e.deliverSparse(b, slot, Event{Kind: EvSendSucceeded, From: b, Msg: e.acts[b].Msg, Channel: e.acts[b].Channel})
		}
		for _, l := range ls {
			for _, b := range bs {
				e.deliverSparse(l, slot, Event{Kind: EvReceived, From: b, Msg: e.acts[b].Msg, Channel: e.acts[l].Channel})
			}
			if sp.parkedPhys[l] >= 0 && !sp.parkedQuiet[l] {
				e.wakeNode(int32(l))
			}
		}
	default:
		winner := bs[e.rand.Intn(len(bs))]
		msg := e.acts[winner].Msg
		for _, b := range bs {
			if b == winner {
				e.deliverSparse(b, slot, Event{Kind: EvSendSucceeded, From: winner, Msg: msg, Channel: e.acts[b].Channel})
			} else {
				e.deliverSparse(b, slot, Event{Kind: EvSendFailed, From: winner, Msg: msg, Channel: e.acts[b].Channel})
			}
		}
		for _, l := range ls {
			e.deliverSparse(l, slot, Event{Kind: EvReceived, From: winner, Msg: msg, Channel: e.acts[l].Channel})
		}
		for _, l := range ls {
			if sp.parkedPhys[l] >= 0 && !sp.parkedQuiet[l] {
				e.wakeNode(int32(l))
			}
		}
	}
	// Every non-quiet parked entry was just woken and stale entries were
	// already compacted away; only quiet parks survive the deliveries. A
	// delivery can still retire a quiet node (Done flipped in Deliver), so
	// the filter also drops retirements — the dense engine would not listen
	// for it next slot either.
	lst := sp.parked[ch][:0]
	for _, v := range sp.parked[ch] {
		if sp.parkedPhys[v] == int32(ch) && !sp.retired[v] {
			lst = append(lst, v)
		}
	}
	sp.parked[ch] = lst
	if len(lst) == 0 {
		sp.parkedDirty[ch] = false
	}
}

// deliverSparse delivers one event and keeps the notDone count exact: a
// delivery may flip a protocol's Done (state-based termination), and the
// dense Run loop would observe that after this very slot.
func (e *Engine) deliverSparse(id NodeID, slot int, ev Event) {
	e.nodes[id].Deliver(slot, ev)
	if e.audit != nil {
		e.audit.OnDeliver(slot, id)
	}
	if !e.sp.retired[id] && e.nodes[id].Done() {
		e.retireNode(slot, int32(id))
	}
}

// retireNode marks a node's termination as observed: it is counted out of
// notDone once and never stepped again. Sparse stepping requires Done to
// be monotonic (true for every protocol in this repository outside the
// recovery supervisor, which always runs dense).
func (e *Engine) retireNode(slot int, v int32) {
	sp := &e.sp
	sp.retired[v] = true
	sp.notDone--
	if e.audit != nil {
		e.audit.OnRetire(slot, NodeID(v))
	}
}

// wakeNode returns a dormant node to the stepped set: its pending timer is
// invalidated, its parked entry (if any) goes stale, and it is stepped
// again from the next scan on.
func (e *Engine) wakeNode(v int32) {
	sp := &e.sp
	sp.parkedPhys[v] = -1
	sp.wakeAt[v] = -1
	sp.woken = append(sp.woken, v)
}

// parkIdle parks an idle node until its hint expires (or forever: an idle
// node cannot receive, so only the slot budget ends an open-ended idle).
func (e *Engine) parkIdle(v int32, slot, k int) {
	if k >= Forever {
		e.sp.wakeAt[v] = -1
		return
	}
	e.pushWake(v, slot+k+1)
}

// parkListen parks a listening node on its physical channel. This slot it
// is still in the live listen bucket (it was stepped); the parked entry
// takes effect afterwards, which commitParked arranges — unless a delivery
// this very slot wakes it first.
func (e *Engine) parkListen(v int32, phys, slot, k int, quiet bool) {
	sp := &e.sp
	sp.parkedPhys[v] = int32(phys)
	sp.parkedAt[v] = slot
	sp.parkedQuiet[v] = quiet
	sp.newlyParked = append(sp.newlyParked, v)
	if k >= Forever {
		sp.wakeAt[v] = -1
		return
	}
	e.pushWake(v, slot+k+1)
}

// commitParked moves this slot's survivors from newlyParked into their
// channels' parked lists. Scan order makes same-slot appends
// node-ascending; a smaller id landing after a bigger one (parks from an
// earlier slot) marks the list for lazy sorting.
func (e *Engine) commitParked() {
	sp := &e.sp
	for _, v := range sp.newlyParked {
		ch := sp.parkedPhys[v]
		if ch < 0 { // woken again before the slot ended
			continue
		}
		lst := sp.parked[ch]
		if len(lst) > 0 && lst[len(lst)-1] > v {
			sp.parkedDirty[ch] = true
		}
		if !sp.parkedSeen[ch] {
			sp.parkedSeen[ch] = true
			sp.parkedTouch = append(sp.parkedTouch, int(ch))
		}
		sp.parked[ch] = append(lst, v)
	}
	sp.newlyParked = sp.newlyParked[:0]
}

// compactParked drops stale entries (nodes no longer parked here) from a
// channel's parked list, sorts it if appends arrived out of order, and
// removes duplicates (a timer wake followed by a re-park on the same
// channel leaves the old entry behind). An entry is live only if the park
// predates this slot: a node whose timer expired and that re-parked on the
// same channel this very slot is in the live listen bucket — it was stepped
// — and its old entry must not double-deliver. Returns the live, sorted,
// duplicate-free list.
func (e *Engine) compactParked(slot, ch int) []int32 {
	sp := &e.sp
	lst := sp.parked[ch]
	if len(lst) == 0 {
		return lst
	}
	w := 0
	for _, v := range lst {
		if sp.parkedPhys[v] == int32(ch) && sp.parkedAt[v] < slot && !sp.retired[v] {
			lst[w] = v
			w++
		}
	}
	lst = lst[:w]
	if sp.parkedDirty[ch] {
		slices.Sort(lst)
		sp.parkedDirty[ch] = false
	}
	w = 0
	for i, v := range lst {
		if i > 0 && v == lst[i-1] {
			continue
		}
		lst[w] = v
		w++
	}
	lst = lst[:w]
	sp.parked[ch] = lst
	return lst
}

// mergedListeners merges the live listen bucket with the channel's
// compacted parked list in ascending node order — exactly the order the
// dense bucket would have held, since a dense scan appends listeners in
// node order and the two sets are disjoint (a parked node is not stepped,
// so it is never in the live bucket).
func (e *Engine) mergedListeners(ch int, pk []int32) []NodeID {
	live := e.listen[ch]
	if len(pk) == 0 {
		return live
	}
	out := e.sp.lscratch[:0]
	i, j := 0, 0
	for i < len(live) || j < len(pk) {
		if j >= len(pk) || (i < len(live) && live[i] < NodeID(pk[j])) {
			out = append(out, live[i])
			i++
		} else {
			out = append(out, NodeID(pk[j]))
			j++
		}
	}
	e.sp.lscratch = out
	return out
}

// pushWake queues a timer wake. Re-parking with an unchanged wake slot
// (the common drain-thrash pattern: woken by a delivery, re-parked toward
// the same phase boundary) revalidates the entry already in the heap
// instead of pushing a duplicate, keeping the heap O(parked).
func (e *Engine) pushWake(v int32, wakeSlot int) {
	sp := &e.sp
	entry := int64(wakeSlot)<<wakeNodeBits | int64(v)
	sp.wakeAt[v] = entry
	if sp.pushed[v] == entry {
		return
	}
	sp.pushed[v] = entry
	h := append(sp.heap, entry)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	sp.heap = h
}

// popWake removes the heap minimum.
func (e *Engine) popWake() {
	h := e.sp.heap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	e.sp.heap = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && h[r] < h[l] {
			small = r
		}
		if h[i] <= h[small] {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}
