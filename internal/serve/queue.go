package serve

import "repro/internal/workload"

// queuedReq is one wait-queue entry: the request plus its admission
// ticket. seq is assigned once, at first insertion, and survives
// preemption requeues, so the queue key (Arrival, seq) reproduces the
// FCFS contract exactly: arrival order first, insertion order across
// equal arrivals — and a preempted request (older ticket than anything
// injected since) returns to the head of its arrival class.
type queuedReq struct {
	req workload.Request
	seq uint64
}

// reqQueue is the arrival-keyed indexed wait queue: a binary min-heap on
// (Arrival, seq). It pays O(log n) per operation and frees each slot on
// pop, so the queue's footprint is the live backlog — the indexed-queue
// half of the O(in-flight) memory contract.
//
// Pushes are allocation-free once the backing array is warm, which the
// steady-state allocs guards rely on; in particular a preemption requeue
// (push of a just-popped request) never allocates.
type reqQueue struct {
	h       []queuedReq
	nextSeq uint64
}

// Len returns the number of waiting requests.
func (q *reqQueue) Len() int { return len(q.h) }

// Peek returns the earliest-keyed waiting request. It must not be called
// on an empty queue.
func (q *reqQueue) Peek() workload.Request { return q.h[0].req }

// Push enqueues a new request under a fresh ticket.
//
//alisa:hotpath
func (q *reqQueue) Push(req workload.Request) {
	q.push(queuedReq{req: req, seq: q.nextSeq})
	q.nextSeq++
}

// Requeue re-enqueues a previously popped request under its original
// ticket — the preemption-requeue path, and the step-back of a failed
// admission probe. The old ticket restores the request's FCFS position.
//
//alisa:hotpath
func (q *reqQueue) Requeue(req workload.Request, seq uint64) {
	q.push(queuedReq{req: req, seq: seq})
}

// Pop removes and returns the earliest-keyed waiting request and its
// ticket. It must not be called on an empty queue.
//
//alisa:hotpath
func (q *reqQueue) Pop() (workload.Request, uint64) {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = queuedReq{} // release the request for GC
	q.h = q.h[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return top.req, top.seq
}

// Clone returns an independent deep copy — the wait-queue half of
// Loop.Fork.
func (q *reqQueue) Clone() reqQueue {
	return reqQueue{h: append([]queuedReq(nil), q.h...), nextSeq: q.nextSeq}
}

func (q *reqQueue) less(a, b queuedReq) bool {
	if a.req.Arrival != b.req.Arrival {
		return a.req.Arrival < b.req.Arrival
	}
	return a.seq < b.seq
}

//alisa:hotpath
func (q *reqQueue) push(e queuedReq) {
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.h[i], q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

//alisa:hotpath
func (q *reqQueue) siftDown(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.less(q.h[l], q.h[small]) {
			small = l
		}
		if r < n && q.less(q.h[r], q.h[small]) {
			small = r
		}
		if small == i {
			return
		}
		q.h[i], q.h[small] = q.h[small], q.h[i]
		i = small
	}
}
