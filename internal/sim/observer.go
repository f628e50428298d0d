package sim

// teeObserver fans one slot report out to several observers, in order.
type teeObserver []Observer

// OnSlot implements Observer.
func (t teeObserver) OnSlot(slot int, outcomes []ChannelOutcome) {
	for _, o := range t {
		o.OnSlot(slot, outcomes)
	}
}

// Tee combines observers into one that forwards every slot report to each
// non-nil observer in argument order. The engine-owned scratch rule of
// Observer applies to every branch: each observer sees the same slices and
// none may retain them. Nil arguments are dropped; Tee of zero or one
// effective observer returns nil or that observer unwrapped, so callers
// can compose unconditionally without paying for an empty fan-out; only a
// real fan-out allocates.
func Tee(observers ...Observer) Observer {
	var last Observer
	n := 0
	for _, o := range observers {
		if o != nil {
			last = o
			n++
		}
	}
	if n <= 1 {
		return last
	}
	t := make(teeObserver, 0, n)
	for _, o := range observers {
		if o != nil {
			t = append(t, o)
		}
	}
	return t
}
