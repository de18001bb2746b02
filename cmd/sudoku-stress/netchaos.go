// Netchaos gate: -server <addr> -netchaos <plan> routes the swarm
// fleet through an in-process fault-injecting TCP proxy
// (internal/netchaos) and turns the run into the end-to-end resilience
// gate: the client package's retry/hedge/breaker policy must convert a
// hostile network into nothing worse than typed errors at the caller.
//
// The swarm runner (serverload.go) runs unchanged apart from three
// things this file supplies. The data-plane client dials the proxy
// with the full resilience policy armed: retries with jittered
// backoff, hedged reads, per-endpoint circuit breakers, per-attempt
// deadlines (which also exercise wire deadline propagation
// server-side); the observer plane keeps dialing the server directly —
// the instruments must keep reading while the patient is being
// electrocuted. The stop signal comes from the phase loop (drive), which
// steps the plan's timeline (the "gate" preset is warmup → weather →
// broken → partition → recovery), holds any violent phase until its
// fault class has demonstrably fired, and stops the fleet once the
// final, clean phase has let half-open probes close the breaker again
// (or -settle has passed). And these gates join the swarm's zero-SDC,
// tap-drop and optional ones:
//
//	zero untyped      every worker error must satisfy client.Typed; a
//	                  write whose outcome is unknown (failed after
//	                  retries) just invalidates its shadow entry, it
//	                  never excuses wrong data
//	breaker cycle     opens ≥ 1, half-opens ≥ 1, closes ≥ 1 whenever the
//	                  plan contains connection-killing faults
//	hedges bounded    launched hedges ≤ budget fraction of attempts
//	faults fired      the proxy's own counters prove the plan injected
//	progress          the fleet completed operations despite the chaos
package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"sudoku/client"
	"sudoku/internal/netchaos"
)

// chaosPresetList renders the built-in plan names for flag help.
func chaosPresetList() string { return strings.Join(netchaos.PresetNames(), ", ") }

// chaosPlane is the -netchaos data plane: the proxy running the plan
// and the resilient client that dials it.
type chaosPlane struct {
	plan netchaos.Plan
	seed uint64
	px   *netchaos.Proxy
	rpol *client.ResilienceOptions
	cl   *client.Client
}

// newChaosPlane starts the proxy running plan in front of o.server.
func newChaosPlane(o options, plan netchaos.Plan, codec uint8) (*chaosPlane, error) {
	px, err := netchaos.New(o.server, plan, o.seed)
	if err != nil {
		return nil, err
	}
	// The full production policy plus hedged reads, with a snappier
	// breaker cooldown so one run can watch a whole open → half-open →
	// closed cycle. AttemptTimeout doubles as the wire deadline stamp,
	// so every attempt also exercises the server's budget-shedding path.
	rpol := &client.ResilienceOptions{
		AttemptTimeout: time.Second,
		Seed:           o.seed,
		Hedge:          client.HedgeOptions{Enabled: true},
		Breaker:        client.BreakerOptions{Cooldown: 500 * time.Millisecond},
	}
	cl := client.New(client.Options{Addr: px.Addr(), Codec: codec, Resilience: rpol})
	return &chaosPlane{plan: plan, seed: o.seed, px: px, rpol: rpol, cl: cl}, nil
}

func (c *chaosPlane) close() {
	_ = c.cl.Close()
	_ = c.px.Close()
}

// drive steps the plan's phases and returns once the timeline is done;
// the fleet runs until then, so a held phase stretches the run instead
// of starving the recovery phase of traffic. Each phase dwells for its
// share of duration (at least 100ms). A fault phase is then held (up
// to 2 more dwells) until its fault class has demonstrably fired: a
// kill phase must open the breaker, a truncation phase must tear at
// least one response, a blackhole phase must swallow a connection.
// Without the hold, a server-side storm window that overlaps the phase
// can starve it of traffic and the gate would assert on faults that
// never happened. The final phase is held (up to settle) until an
// opened breaker has closed again: breakers are per operation class,
// and only the fleet carries every class, so only it can feed the
// half-open probe of whichever breaker opened.
func (c *chaosPlane) drive(duration, settle time.Duration, out io.Writer) {
	dwell := max(duration/time.Duration(len(c.plan.Phases)), 100*time.Millisecond)
	prev := c.px.Stats()
	for i, ph := range c.plan.Phases {
		c.px.SetPhase(i)
		fmt.Fprintf(out, "netchaos: phase %d/%d %q for %v\n", i+1, len(c.plan.Phases), ph.Name, dwell)
		time.Sleep(dwell)
		needKill := ph.ResetProb+ph.TornProb > 0
		needTrunc := ph.TruncProb > 0
		needHole := ph.BlackholeProb > 0
		for hold := time.Now().Add(2 * dwell); (needKill || needTrunc || needHole) && time.Now().Before(hold); {
			st := c.px.Stats()
			if (!needKill || c.cl.ResilienceStats().BreakerOpens > 0) &&
				(!needTrunc || st.Truncations > prev.Truncations) &&
				(!needHole || st.Blackholed > prev.Blackholed) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		st := c.px.Stats()
		fmt.Fprintf(out, "netchaos: phase %q injected resets=%d torn=%d truncated=%d blackholed=%d delayed=%d\n",
			ph.Name, st.Resets-prev.Resets, st.TornWrites-prev.TornWrites,
			st.Truncations-prev.Truncations, st.Blackholed-prev.Blackholed, st.Delayed-prev.Delayed)
		prev = st
	}
	for hold := time.Now().Add(settle); time.Now().Before(hold); {
		if st := c.cl.ResilienceStats(); st.BreakerOpens == 0 || st.BreakerCloses > 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// report prints the plan, proxy and resilience counters.
func (c *chaosPlane) report(out io.Writer) {
	pst := c.px.Stats()
	rst := c.cl.ResilienceStats()
	fmt.Fprintf(out, "netchaos: plan=%s seed=%d\n", c.plan.Name, c.seed)
	fmt.Fprintf(out, "proxy: conns=%d resets=%d torn=%d truncated=%d blackholed=%d delayed=%d up=%dB down=%dB\n",
		pst.Conns, pst.Resets, pst.TornWrites, pst.Truncations, pst.Blackholed, pst.Delayed, pst.BytesUp, pst.BytesDown)
	fmt.Fprintf(out, "resilience: attempts=%d retries(transport=%d shed=%d) hedges=%d wins=%d breaker(opens=%d half=%d closes=%d rejects=%d)\n",
		rst.Attempts, rst.RetriesTransport, rst.RetriesShed, rst.Hedges, rst.HedgeWins,
		rst.BreakerOpens, rst.BreakerHalfOpens, rst.BreakerCloses, rst.BreakerRejects)
}

// gates applies the netchaos-only gates: progress, faults fired, a
// full breaker cycle, and the hedge budget.
func (c *chaosPlane) gates(ops int64) []string {
	var fails []string
	if ops == 0 {
		fails = append(fails, "no operations completed (fleet starved by the fault plan)")
	}
	var planFaults, planKills bool
	for _, ph := range c.plan.Phases {
		if ph.ResetProb+ph.TornProb+ph.TruncProb+ph.BlackholeProb > 0 {
			planFaults = true
		}
		if ph.ResetProb+ph.TornProb > 0 {
			planKills = true
		}
	}
	pst := c.px.Stats()
	if planFaults && pst.Resets+pst.TornWrites+pst.Truncations+pst.Blackholed == 0 {
		fails = append(fails, "fault plan never fired (proxy injected nothing)")
	}
	rst := c.cl.ResilienceStats()
	if planKills {
		if rst.BreakerOpens == 0 {
			fails = append(fails, "breaker never opened under connection-killing faults")
		} else if rst.BreakerHalfOpens == 0 || rst.BreakerCloses == 0 {
			fails = append(fails, fmt.Sprintf("breaker cycle incomplete: opens=%d half-opens=%d closes=%d",
				rst.BreakerOpens, rst.BreakerHalfOpens, rst.BreakerCloses))
		}
	}
	// Hedge budget: the policy promises launched hedges stay within
	// BudgetFraction of attempts; +2 absorbs the integer-race slack of
	// concurrent budget checks.
	frac := c.rpol.Hedge.BudgetFraction
	if frac <= 0 {
		frac = 0.05
	}
	if limit := int64(math.Ceil(frac*float64(rst.Attempts))) + 2; rst.Hedges > limit {
		fails = append(fails, fmt.Sprintf("hedges %d exceed budget %d (%.0f%% of %d attempts)",
			rst.Hedges, limit, frac*100, rst.Attempts))
	}
	return fails
}
