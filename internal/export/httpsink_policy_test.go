package export

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"strings"
	"testing"
	"time"
)

// timeoutCost marks an outcome that takes the attempt's whole timeout.
const timeoutCost = -1

// policyAlphabet is every outcome an attempt can come back with, as next
// sees it, and how long the attempt took (never past its timeout).
var policyAlphabet = []struct {
	name string
	o    outcome
	cost time.Duration
}{
	{"2xx", outcome{status: http.StatusOK}, time.Millisecond}, // a duplicate ack too
	{"413", outcome{status: http.StatusRequestEntityTooLarge}, time.Millisecond},
	{"415", outcome{status: http.StatusUnsupportedMediaType}, time.Millisecond},
	{"503", outcome{status: http.StatusServiceUnavailable}, time.Millisecond},
	// Retry-After 3s: past the D/5 cap of the 10s default deadline, and
	// past the deadline itself once a batch has spent 7s.
	{"429+Retry-After", outcome{status: http.StatusTooManyRequests, retryAfter: 3 * time.Second}, time.Millisecond},
	{"timeout", outcome{}, timeoutCost},
	{"refused", outcome{}, 0},
}

func answered(code int) bool {
	return code/100 == 2 || code/100 == 4 && code != http.StatusTooManyRequests
}

func codecRefusal(code int) bool {
	return code == http.StatusUnsupportedMediaType || code == http.StatusNotAcceptable || code == http.StatusBadRequest
}

// attemptsUntilDrop runs one batch against a port that refuses at once
// and returns how many attempts it made. At jitter 0 the waits are the
// shortest, so this is the most attempts any batch makes awake.
func attemptsUntilDrop(t *testing.T, d time.Duration, jitter float64) int {
	t.Helper()
	st := deliveryState{deadline: d, json: true}
	var now time.Duration
	act, st := next(st, outcome{status: batchStart}, now, jitter)
	for n := 1; n < 1000; n++ {
		if act, st = next(st, outcome{}, now, jitter); act.kind != actRetry {
			if act.kind != actDrop || act.reason != dropDeadline {
				t.Fatalf("refused attempt %d ended the batch with %+v, want a deadline drop", n, act)
			}
			return n
		}
		now += act.wait
	}
	t.Fatal("a refusing port kept the batch retrying for 1000 attempts")
	return 0
}

// policySim drives next the way ship does, on a simulated clock. wall is
// real time; a closing shipper does not spend it on waits but charges
// them to skipped, and next reads wall + skipped.
type policySim struct {
	t             *testing.T
	st            deliveryState
	wall, skipped time.Duration
	act           action // the attempt awaiting its outcome
	attempts      int    // attempts of the batch in flight
	stalled       int    // of those, how many went out at the same wall instant
	lastWall      time.Duration
	closing       bool
	jitter        float64
	max           int // the awake attempt bound
}

func (p *policySim) now() time.Duration { return p.wall + p.skipped }

func (p *policySim) fail(trail []string, format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("jitter %v, closing %v, after [%s]: %s",
		p.jitter, p.closing, strings.Join(trail, " → "), fmt.Sprintf(format, args...))
}

// step feeds the pending attempt's outcome to next and checks the action.
func (p *policySim) step(o outcome, cost time.Duration, trail []string) {
	d := p.st.deadline
	if cost == timeoutCost || cost > p.act.timeout {
		cost = p.act.timeout
	}
	p.wall += cost
	prev, code := p.st, o.status
	act, st := next(p.st, o, p.now(), p.jitter)
	if answered(code) && st.dead != 0 {
		p.fail(trail, "an answered request left the circuit counting %d dead batches", st.dead)
	}
	if !prev.json && codecRefusal(code) && act.kind != actFallback {
		p.fail(trail, "a codec refusal on the binary wire yielded %+v, want a fallback resend", act)
	}
	switch act.kind {
	case actAck:
		if code/100 != 2 {
			p.fail(trail, "ack after status %d", code)
		}
	case actFallback:
		if prev.json || !codecRefusal(code) {
			p.fail(trail, "fallback after status %d (json=%v)", code, prev.json)
		}
	case actRetry:
		if answered(code) {
			p.fail(trail, "retried an answered status %d", code)
		}
		if act.wait <= 0 || act.wait > d/5 {
			p.fail(trail, "wait %s outside (0, D/5]", act.wait)
		}
	case actDrop:
		want := dropDeadline
		switch {
		case answered(code):
			want = dropRejected
		case prev.probing:
			want = dropCircuitOpen
		}
		if act.reason != want {
			p.fail(trail, "drop reason %s after status %d (probing=%v), want %s",
				dropReasonNames[act.reason], code, prev.probing, dropReasonNames[want])
		}
	default:
		p.fail(trail, "action %+v mid-batch", act)
	}
	p.st = st
	p.settle(act, trail)
}

// settle carries out act: it ends the batch (starting the next one) or
// waits, until an attempt is pending.
func (p *policySim) settle(act action, trail []string) {
	d := p.st.deadline
	for starts := 0; ; {
		switch act.kind {
		case actAck, actDrop:
			if held := p.now() - p.st.began; held > d {
				p.fail(trail, "batch held the shipper %s, past its %s deadline", held, d)
			}
			if p.attempts == 0 {
				// Dropped unsent by the open circuit: the next batch is
				// recorded a while later.
				p.wall += d / 4
			}
			if starts++; starts > 5 {
				p.fail(trail, "the open circuit never let a probe through")
			}
			p.attempts, p.stalled = 0, 0
			act, p.st = next(p.st, outcome{status: batchStart}, p.now(), p.jitter)
			if act.kind == actDrop && (act.reason != dropCircuitOpen || p.st.dead < circuitAfter) {
				p.fail(trail, "a new batch dropped as %s with the circuit closed", dropReasonNames[act.reason])
			}
			if act.kind != actDrop && act.kind != actSend {
				p.fail(trail, "a new batch began with %+v", act)
			}
			continue
		case actRetry:
			if p.closing {
				p.skipped += act.wait
			} else {
				p.wall += act.wait
			}
		}
		if p.attempts++; p.attempts > p.max {
			p.fail(trail, "attempt %d of one batch exceeds the awake bound %d", p.attempts, p.max)
		}
		if p.wall != p.lastWall {
			p.stalled, p.lastWall = 0, p.wall
		}
		if p.stalled++; p.stalled > p.max {
			p.fail(trail, "%d attempts of one batch at one instant: a zero-wait loop", p.stalled)
		}
		if end := p.now() + act.timeout; act.timeout < 0 || end > p.st.began+d {
			p.fail(trail, "attempt with timeout %s may outlive the batch's deadline", act.timeout)
		}
		p.act = act
		return
	}
}

// explore feeds p every outcome sequence of up to depth more outcomes and
// returns how many sequences of exactly that length it ran.
func explore(p policySim, depth int, trail []string) int {
	if depth == 0 {
		return 1
	}
	n := 0
	for _, a := range policyAlphabet {
		q := p
		tr := append(trail, a.name)
		q.step(a.o, a.cost, tr)
		n += explore(q, depth-1, tr)
	}
	return n
}

// TestDeliveryPolicyExhaustive enumerates every outcome sequence up to
// length 8, at both jitter extremes, awake and closing, from a binary
// wire (so the fallback is reachable), with no network and no sleep.
func TestDeliveryPolicyExhaustive(t *testing.T) {
	const depth = 8
	d := defaultDeadline // policyAlphabet's Retry-After is sized for it
	began := time.Now()
	for _, jitter := range []float64{0, 1} {
		for _, closing := range []bool{false, true} {
			p := policySim{t: t, st: deliveryState{deadline: d}, closing: closing, jitter: jitter,
				max: attemptsUntilDrop(t, d, 0)}
			act, st := next(p.st, outcome{status: batchStart}, 0, jitter)
			p.st = st
			p.settle(act, nil)
			if n, want := explore(p, depth, make([]string, 0, depth)), pow(len(policyAlphabet), depth); n != want {
				t.Fatalf("explored %d sequences of length %d, want %d", n, depth, want)
			}
		}
	}
	t.Logf("%d outcome sequences of length %d, 4 ways each, in %s", pow(len(policyAlphabet), depth), depth, time.Since(began))
}

func pow(b, e int) int {
	n := 1
	for ; e > 0; e-- {
		n *= b
	}
	return n
}

// TestDeliveryPolicyLadder pins the ladder derived from the deadline:
// D/2 attempt timeouts, backoff from D/200 doubling to D/5 within [50%,
// 100%] jitter, and a bounded attempt count that a closing shipper — whose
// skipped waits are still charged to the clock — cannot exceed.
func TestDeliveryPolicyLadder(t *testing.T) {
	d := defaultDeadline
	for _, jitter := range []float64{0, 1} {
		st := deliveryState{deadline: d, json: true}
		act, st := next(st, outcome{status: batchStart}, 0, jitter)
		if act.kind != actSend || act.timeout != d/2 {
			t.Fatalf("first attempt %+v, want a send bounded by D/2", act)
		}
		var waits []time.Duration
		var now time.Duration
		for {
			if act, st = next(st, outcome{status: http.StatusServiceUnavailable}, now, jitter); act.kind != actRetry {
				break
			}
			waits = append(waits, act.wait)
			now += act.wait
		}
		step := d / 200
		for i, w := range waits {
			if lo := step / 2; w < lo || w > step {
				t.Fatalf("jitter %v: wait %d = %s, want within [%s, %s]", jitter, i, w, lo, step)
			}
			step = min(2*step, d/5)
		}
	}
	lo, hi := attemptsUntilDrop(t, d, 1), attemptsUntilDrop(t, d, 0)
	if lo < 2 || hi > 20 {
		t.Fatalf("a refusing port costs %d..%d attempts per batch, want a handful", lo, hi)
	}
}

// TestDeliveryPolicyIsPure: next takes time only from its now argument
// and randomness only from jitter.
func TestDeliveryPolicyIsPure(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "httpsink.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "next" || fn.Recv != nil {
			continue
		}
		found = true
		ast.Inspect(fn, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok {
				switch {
				case pkg.Name == "rand",
					pkg.Name == "time" && sel.Sel.Name != "Duration":
					t.Errorf("next reads %s.%s; time must come only from now and randomness only from jitter", pkg.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
	if !found {
		t.Fatal("func next not found in httpsink.go")
	}
}
