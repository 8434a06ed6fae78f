package main

// Load generation: an open loop (requests fall due on a schedule whatever
// the server does) and a closed loop (each client sends its next request
// when the previous one returns). Both run on at most e.conns connections.

import (
	"context"
	"sync"
	"time"
)

// op is one executed request.
type op struct {
	req request
	// due is when the request should have been sent: its scheduled time in
	// an open loop, the client's previous completion in a closed loop.
	due time.Time
	// dispatched is when the request was released: in an open loop, when
	// the worker that slept until its due time woke (the due time itself
	// if it fell due while every worker was busy), so dispatched − due is
	// how late the generator ran; in a closed loop, when the client took
	// it.
	dispatched time.Time
	sent, done time.Time
	err        error
	// body is the response payload, kept only in traced phases.
	body []byte
}

func (o op) latency() time.Duration { return o.done.Sub(o.due) }
func (o op) lag() time.Duration     { return o.dispatched.Sub(o.due) }

// execFunc performs and checks one request, returning the response body.
type execFunc func(ctx context.Context, r request) ([]byte, error)

// openLoop sends the requests from next at their due times for dur on
// conns workers. A free worker takes the next request in schedule order
// and, if it is not yet due, sleeps until it is; a request that falls due
// while every worker is busy waits for the first free one, and its
// latency still counts from its due time, so a slow server shows as
// latency. Workers take requests themselves rather than from a separate
// generator goroutine: each send then waits for one wake-up instead of
// two, and on a shared host every wake-up adds its own delay to latency.
func openLoop(ctx context.Context, dur time.Duration, conns int, next func(limit time.Duration) (request, bool), exec execFunc, keepBody bool) []op {
	var mu sync.Mutex
	take := func() (request, bool) {
		mu.Lock()
		defer mu.Unlock()
		return next(dur)
	}
	results := make([][]op, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				r, ok := take()
				if !ok {
					return
				}
				o := op{req: r, due: start.Add(r.At)}
				o.dispatched = o.due
				if d := time.Until(o.due); d > 0 {
					time.Sleep(d)
					o.dispatched = time.Now()
				}
				o.sent = time.Now()
				o.body, o.err = exec(ctx, o.req)
				o.done = time.Now()
				if !keepBody {
					o.body = nil
				}
				results[w] = append(results[w], o)
			}
		}(w)
	}
	wg.Wait()
	return merge(results)
}

// closedLoop runs clients that each send their next request as soon as
// the previous one returns, until dur elapses or next runs out.
func closedLoop(ctx context.Context, dur time.Duration, clients int, next func() (request, bool), exec execFunc, keepBody bool) []op {
	var mu sync.Mutex
	take := func() (request, bool) {
		mu.Lock()
		defer mu.Unlock()
		return next()
	}
	results := make([][]op, clients)
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			due := time.Now()
			for ctx.Err() == nil && time.Now().Before(end) {
				r, ok := take()
				if !ok {
					return
				}
				o := op{req: r, due: due, dispatched: time.Now()}
				o.sent = o.dispatched
				o.body, o.err = exec(ctx, r)
				o.done = time.Now()
				if !keepBody {
					o.body = nil
				}
				results[c] = append(results[c], o)
				due = o.done
			}
		}(c)
	}
	wg.Wait()
	return merge(results)
}

func merge(parts [][]op) []op {
	var out []op
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// phaseStats summarizes the ops of one kind in a timed phase.
type phaseStats struct {
	n   int
	lat []float64 // ms, successful ops only
}

func statsOf(ops []op, k kind) phaseStats {
	var s phaseStats
	for _, o := range ops {
		if o.req.Kind != k {
			continue
		}
		s.n++
		if o.err == nil {
			s.lat = append(s.lat, ms(o.latency()))
		}
	}
	return s
}

func (s phaseStats) p(q float64) float64 { return quantile(append([]float64(nil), s.lat...), q) }

// lagP99 is the 99th percentile of generator lateness over ops, in ms.
func lagP99(ops []op) float64 {
	lags := make([]float64, len(ops))
	for i, o := range ops {
		lags[i] = ms(o.lag())
	}
	return quantile(lags, 0.99)
}

// lagShare is the generator's lateness as a share of the latency measured
// from due times. Latency counts from the due time, so a late generator
// does not hide server time; but when lateness is most of the latency,
// requests were served as soon as they were sent and the generator, not
// the server, set the pace.
func lagShare(ops []op) float64 {
	var lag, lat time.Duration
	for _, o := range ops {
		lag += o.lag()
		lat += o.latency()
	}
	return ratio(float64(lag), float64(lat))
}
