package memctrl

// eventKind discriminates scheduled simulator events.
type eventKind uint8

const (
	// evComplete: a bank finished servicing its in-flight request.
	evComplete eventKind = iota
	// evCacheComplete: a rank's WOM-cache array finished its request.
	evCacheComplete
	// evRefreshTick: the periodic PCM-refresh scheduling point.
	evRefreshTick
	// evRefreshDone: a rank's burst-mode refresh operation completed.
	evRefreshDone
	// evCacheRefreshDone: a rank's WOM-cache refresh completed.
	evCacheRefreshDone
)

// event is one scheduled occurrence. seq breaks time ties deterministically
// in scheduling order.
type event struct {
	time Clock
	seq  uint64
	kind eventKind
	rank int
	bank int
	// token matches server.token for completion events; a cancellation
	// bumps the server token, orphaning the in-flight event.
	token uint64
}

// eventHeap is a binary min-heap on (time, seq), kept typed so pushing and
// popping an event copies it in place instead of boxing it in an interface.
// seq is unique, so the pop order is fully determined.
type eventHeap []event

func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// schedule pushes an event.
func (c *Controller) schedule(e event) {
	e.seq = c.seq
	c.seq++
	h := append(c.events, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	c.events = h
}

// nextEventTime peeks at the earliest scheduled event time.
func (c *Controller) nextEventTime() (Clock, bool) {
	if len(c.events) == 0 {
		return 0, false
	}
	return c.events[0].time, true
}

// popEvent removes and returns the earliest event.
func (c *Controller) popEvent() event {
	h := c.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		least := i
		if l := 2*i + 1; l < n && h[l].before(&h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && h[r].before(&h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	c.events = h
	return top
}
