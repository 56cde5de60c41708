package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"confaudit/internal/cluster"
	"confaudit/internal/logmodel"
)

// maxFinalLate is how far behind schedule the open-loop generator may
// end a paced phase. Beyond it the offered rate was not sustained, the
// backlog grew, and the run is invalid rather than reported.
const maxFinalLate = 500 * time.Millisecond

// schedule returns n send offsets of a Poisson arrival process at rate
// records per second, drawn from rng: independent users, so an open
// loop.
func schedule(rng *rand.Rand, n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// lateness is how long after its scheduled time a send began.
func lateness(due, sent time.Duration) time.Duration {
	if sent < due {
		return 0
	}
	return sent - due
}

// write is one record's trip through an appender session. Times are
// offsets from the phase epoch.
type write struct {
	values map[logmodel.Attr]logmodel.Value
	owner  int
	due    time.Duration // scheduled send (0 for unpaced sends)
	sent   time.Duration // Append called
	ret    time.Duration // Append returned
	acked  time.Duration // ack resolved
	glsn   logmodel.GLSN
	err    error
}

// ackLatency is the open-loop latency: ack time from the scheduled send.
func (w *write) ackLatency() time.Duration { return w.acked - w.due }

// sendPhase drives the writes through the sessions' appenders. Write i
// goes to session i mod len(apps). With paced set, each session sleeps
// until a write's due time; otherwise it sends as fast as Append
// admits. It returns once every ack has resolved, with the time the
// last one took.
func sendPhase(ctx context.Context, tr *tracer, parent int, apps []*cluster.Appender, ws []write, paced bool) time.Duration {
	epoch := time.Now()
	var acks sync.WaitGroup
	var senders sync.WaitGroup
	for s := range apps {
		senders.Add(1)
		go func(s int) {
			defer senders.Done()
			for i := s; i < len(ws); i += len(apps) {
				w := &ws[i]
				w.owner = s
				if paced {
					if d := w.due - time.Since(epoch); d > 0 {
						time.Sleep(d)
					}
				}
				w.sent = time.Since(epoch)
				sp := tr.start("cluster.Appender.Append", "", parent)
				ack, err := apps[s].Append(ctx, w.values)
				tr.end(sp)
				w.ret = time.Since(epoch)
				if err != nil {
					w.err, w.acked = err, w.ret
					continue
				}
				acks.Add(1)
				go func() {
					defer acks.Done()
					<-ack.Done()
					w.acked = time.Since(epoch)
					w.glsn, w.err = ack.GLSN()
				}()
			}
		}(s)
	}
	senders.Wait()
	acks.Wait()
	var end time.Duration
	for i := range ws {
		if ws[i].acked > end {
			end = ws[i].acked
		}
	}
	return end
}

// openAppenders starts one appender per writer session with default
// options.
func openAppenders(ctx context.Context, users []*cluster.Client) ([]*cluster.Appender, error) {
	apps := make([]*cluster.Appender, 0, len(users))
	for i, u := range users {
		a, err := u.NewAppender(ctx, cluster.AppendOptions{})
		if err != nil {
			closeAppenders(ctx, apps) //nolint:errcheck // already failing
			return nil, fmt.Errorf("appender %d: %w", i, err)
		}
		apps = append(apps, a)
	}
	return apps, nil
}

func closeAppenders(ctx context.Context, apps []*cluster.Appender) error {
	var first error
	for _, a := range apps {
		if err := a.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}
