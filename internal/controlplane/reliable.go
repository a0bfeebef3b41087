package controlplane

import (
	"fmt"
	"sort"

	"zipline/internal/bitvec"
	"zipline/internal/netsim"
	"zipline/internal/tofino"
	"zipline/internal/zswitch"
)

// This file is the fault-era control plane: a reliable control
// channel (acks, deterministic timeout + capped exponential backoff
// retransmit, capped retries with abandonment) and the restart
// reconciliation protocol built on it. None of it runs — and none of
// its random draws or events happen — unless Config.Faults is set, so
// the fault-free schedule stays byte-identical to the pre-fault
// engine.
//
// The safety argument for the zero-stranded-packets guarantee:
//
//   - A crash clears a switch's tables and bumps its epoch instantly;
//     its ports stay down through the reboot, so in-flight compressed
//     frames die as crash loss, never as decode misses.
//   - A restarted decoder's ports stay down until every encoder has
//     acknowledged quarantine (bypass on + dictionary cleared) plus a
//     drain margin longer than any dataplane flight time. From that
//     point no encoder can emit a compressed frame.
//   - Install chains are tagged with the controller generation (gen),
//     bumped on every decoder restart. A write from a stale chain is
//     discarded at delivery, closing the race where a pre-crash
//     encoder install lands after the quarantine wipe.
//   - Encoder mappings come back only after the restarted decoder has
//     acknowledged its full ID→basis reinstall — decoders-first,
//     network-wide, across any fault schedule.

// retryForever marks correctness-critical messages (restart
// notifications, quarantine and reinstall writes) that retransmit
// without cap.
const retryForever = -1

// drainMarginNs is how long reconciliation waits after the last
// quarantine ack before re-enabling a restarted decoder's ports:
// longer than any link+pipeline flight time, so compressed frames
// emitted before the quarantine landed have drained.
const drainMarginNs = 100 * netsim.Microsecond

// relMsg is one reliable control message. apply runs exactly once, at
// the first successful delivery; resolve runs exactly once, with true
// after an acknowledged delivery or false on abandonment.
type relMsg struct {
	// target is the switch whose liveness gates delivery; nil for
	// messages terminating at the (always-up) controller.
	target  *netsim.Switch
	latency netsim.Time
	// maxRetries caps retransmissions (retryForever = none).
	maxRetries int
	attempt    int
	applied    bool
	apply      func()
	resolve    func(acked bool)
}

// send attempts one delivery of m, drawing the in-flight and ack loss
// decisions from the fault injector.
func (c *Controller) send(m *relMsg) {
	if c.cfg.Faults.Drop(c.cfg.ControlLossProb) {
		c.timeout(m) // lost in flight; the sender times out
		return
	}
	c.sim.After(c.sim.Jitter(m.latency, c.cfg.JitterFrac), func() {
		if m.target != nil && m.target.Down() {
			c.timeout(m) // delivered into a dead switch: no ack
			return
		}
		if !m.applied {
			m.applied = true
			m.apply()
		}
		if c.cfg.Faults.Drop(c.cfg.ControlLossProb) {
			c.timeout(m) // applied, but the ack was lost
			return
		}
		if m.resolve != nil {
			m.resolve(true)
		}
	})
}

// timeout schedules m's retransmission under the capped exponential
// backoff, or abandons it once the retry cap is exhausted.
func (c *Controller) timeout(m *relMsg) {
	if m.maxRetries >= 0 && m.attempt >= m.maxRetries {
		c.stats.Abandoned++
		if m.resolve != nil {
			m.resolve(false)
		}
		return
	}
	wait := netsim.Backoff(c.cfg.RetransmitTimeoutNs, m.attempt)
	m.attempt++
	c.sim.After(wait, func() {
		c.stats.Retransmits++
		c.send(m)
	})
}

// switchOf returns the simulated switch hosting pl, nil when
// unregistered (delivery then never observes a crash).
func (c *Controller) switchOf(pl *tofino.Pipeline) *netsim.Switch {
	return c.switches[pl]
}

// sendDigest carries one digest over the lossy control channel: the
// switch-side digest agent retransmits on timeout, capped — an
// abandoned digest is re-emitted naturally by the next miss for the
// same basis.
func (c *Controller) sendDigest(src *tofino.Pipeline, data []byte, emitted netsim.Time) {
	c.send(&relMsg{
		latency:    c.cfg.DigestLatencyNs,
		maxRetries: c.cfg.MaxRetries,
		apply:      func() { c.handleDigestFrom(src, data, emitted) },
	})
}

// handleDigestFrom is the armed digest sink: it strips the epoch tag
// and discards digests emitted by an earlier incarnation of the
// switch (drained queues make these rare — only messages already in
// flight at the crash).
func (c *Controller) handleDigestFrom(src *tofino.Pipeline, data []byte, emitted netsim.Time) {
	c.stats.DigestsSeen++
	c.stats.DigestBytes += uint64(len(data))
	basis, epoch := zswitch.SplitDigest(data, (c.basisBits+7)/8)
	if epoch != zswitch.Epoch(src) {
		c.stats.StaleDigests++
		return
	}
	c.acceptDigest(basis, emitted)
}

// armedAllocate is allocateAndInstall for the fault era: same
// identifier policy, but every table touch is a reliable write and
// the chain is tagged with the current generation.
func (c *Controller) armedAllocate(key string, basis *bitvec.Vector) {
	gen := c.gen
	if len(c.free) > 0 {
		id := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.armedInstallDecoders(key, basis, id, gen)
		return
	}
	victimKey := c.pickVictim()
	if victimKey == "" {
		c.sim.After(c.sim.Jitter(c.cfg.WriteLatencyNs, c.cfg.JitterFrac), func() {
			c.armedAllocate(key, basis)
		})
		return
	}
	victim := c.byKey[victimKey]
	c.recycling[victimKey] = true
	// Phase 0: stop every encoder from using the identifier. Eviction
	// must land (a half-evicted identifier could be recycled into a
	// conflicting mapping), so it retries without cap.
	remaining := len(c.encs)
	for _, enc := range c.encs {
		enc := enc
		c.send(&relMsg{
			target:     c.switchOf(enc),
			latency:    c.cfg.WriteLatencyNs,
			maxRetries: retryForever,
			apply:      func() { zswitch.DeleteBasisToID(enc, victim.basis) },
			resolve: func(bool) {
				remaining--
				if remaining > 0 {
					return
				}
				delete(c.byKey, victimKey)
				delete(c.recycling, victimKey)
				c.stats.Recycled++
				c.armedInstallDecoders(key, basis, victim.id, gen)
			},
		})
	}
}

// armedInstallDecoders is phase 1: one reliable write per decoder.
// The chain advances to the encoders only once every decoder has
// acknowledged — the paper's invariant, now ack-enforced.
func (c *Controller) armedInstallDecoders(key string, basis *bitvec.Vector, id uint32, gen uint64) {
	remaining := len(c.decs)
	failed := false
	for _, dec := range c.decs {
		dec := dec
		c.send(&relMsg{
			target:     c.switchOf(dec),
			latency:    c.cfg.WriteLatencyNs,
			maxRetries: c.cfg.MaxRetries,
			apply: func() {
				if c.gen != gen {
					return // stale chain: discard at delivery
				}
				if err := zswitch.InstallIDToBasis(dec, id, basis, c.sim.Now()); err != nil {
					panic(fmt.Sprintf("controlplane: decoder install: %v", err))
				}
			},
			resolve: func(acked bool) {
				if !acked {
					failed = true
				}
				remaining--
				if remaining > 0 {
					return
				}
				if failed || c.gen != gen {
					// Abandoned or staled before any encoder write:
					// no encoder maps the basis, so the identifier is
					// safe to reuse (a future chain overwrites the
					// decoders first). Reap the inflight entry so the
					// next digest re-learns.
					delete(c.inflight, key)
					c.free = append(c.free, id)
					return
				}
				c.armedInstallEncoders(key, basis, id, gen)
			},
		})
	}
}

// armedInstallEncoders is phase 2: the mapping goes live on every
// encoder, then commits to byKey.
func (c *Controller) armedInstallEncoders(key string, basis *bitvec.Vector, id uint32, gen uint64) {
	remaining := len(c.encs)
	failed := false
	for _, enc := range c.encs {
		enc := enc
		c.send(&relMsg{
			target:     c.switchOf(enc),
			latency:    c.cfg.WriteLatencyNs,
			maxRetries: c.cfg.MaxRetries,
			apply: func() {
				if c.gen != gen {
					return // stale chain: discard at delivery
				}
				if err := zswitch.InstallBasisToID(enc, basis, id, c.sim.Now()); err != nil {
					panic(fmt.Sprintf("controlplane: encoder install: %v", err))
				}
			},
			resolve: func(acked bool) {
				if !acked {
					failed = true
				}
				remaining--
				if remaining > 0 {
					return
				}
				if failed || c.gen != gen {
					// Some encoders may hold the mapping; every
					// decoder does (phase 1 completed), so it decodes
					// fine — but it never commits, so the identifier
					// is retired rather than returned to the pool: a
					// reuse would re-point decoder entries while the
					// orphaned encoder entries still compress against
					// the old basis.
					delete(c.inflight, key)
					return
				}
				c.byKey[key] = mapping{id: id, basis: basis}
				if emitted, ok := c.inflight[key]; ok {
					c.delays.Add(float64(c.sim.Now()-emitted) / 1e6)
				}
				delete(c.inflight, key)
				c.stats.Learned++
			},
		})
	}
}

// SwitchRestarted notifies the controller that a managed switch
// crashed at downSince (losing its tables and bumping its epoch) and
// will finish rebooting at upAt. The crash is detected when the BfRt
// session breaks, so reconciliation overlaps the reboot rather than
// waiting for it. enable, when non-nil, is invoked when the switch's
// dataplane may come back up: no earlier than upAt, and for a decoder
// no earlier than quarantine + drain. The notification itself crosses
// the lossy control channel and retries without cap.
func (c *Controller) SwitchRestarted(pl *tofino.Pipeline, downSince, upAt netsim.Time, enable func()) {
	c.send(&relMsg{
		latency:    c.cfg.DigestLatencyNs,
		maxRetries: retryForever,
		apply:      func() { c.resync(pl, downSince, upAt, enable) },
	})
}

// resync reconciles a restarted switch. Encoders-only restarts are
// benign (an empty dictionary just stops compressing) and only need
// their mappings repopulated; a restarted decoder triggers the full
// quarantine protocol.
func (c *Controller) resync(pl *tofino.Pipeline, downSince, upAt netsim.Time, enable func()) {
	c.stats.Resyncs++
	if !c.IsDecoder(pl) {
		if enable != nil {
			enable()
		}
		c.send(&relMsg{
			target:     c.switchOf(pl),
			latency:    c.cfg.WriteLatencyNs,
			maxRetries: retryForever,
			apply:      func() { c.installAllBasisToID(pl) },
			resolve:    func(bool) { c.recordRecovery(downSince) },
		})
		return
	}

	// Any install chain begun before this point could land an encoder
	// mapping the restarted decoder lacks; stale it.
	c.gen++

	// Phase A — quarantine: every *other* encoder goes into bypass
	// with a wiped dictionary (the restarted switch's own encoder
	// side is already empty). Refcounted, so overlapping resyncs keep
	// bypass up until the last one finishes.
	quarantine := make([]*tofino.Pipeline, 0, len(c.encs))
	for _, enc := range c.encs {
		if enc != pl {
			quarantine = append(quarantine, enc)
		}
	}
	remaining := len(quarantine)
	proceed := func() {
		// Ports open at the later of reboot completion and
		// quarantine + drain — when quarantine finishes inside the
		// reboot window (the common case), recovery costs no downtime
		// beyond the reboot itself.
		delay := upAt - c.sim.Now()
		if delay < drainMarginNs {
			delay = drainMarginNs
		}
		c.sim.After(delay, func() {
			if enable != nil {
				enable()
			}
			c.reinstallDecoder(pl, quarantine, downSince)
		})
	}
	if remaining == 0 {
		proceed()
		return
	}
	for _, enc := range quarantine {
		enc := enc
		c.bypassHolds[enc]++
		c.send(&relMsg{
			target:     c.switchOf(enc),
			latency:    c.cfg.WriteLatencyNs,
			maxRetries: retryForever,
			apply: func() {
				if err := zswitch.SetBypass(enc, true); err != nil {
					panic(fmt.Sprintf("controlplane: quarantine: %v", err))
				}
				if t, ok := enc.Table(zswitch.TableBasisToID); ok {
					t.Clear()
				}
			},
			resolve: func(bool) {
				remaining--
				if remaining == 0 {
					proceed()
				}
			},
		})
	}
}

// reinstallDecoder is phases B and C of decoder reconciliation: the
// restarted decoder gets its full ID→basis dictionary back first;
// only after it acknowledges do the quarantined encoders get their
// mappings (and their traffic) back.
func (c *Controller) reinstallDecoder(pl *tofino.Pipeline, quarantined []*tofino.Pipeline, downSince netsim.Time) {
	c.send(&relMsg{
		target:     c.switchOf(pl),
		latency:    c.cfg.WriteLatencyNs,
		maxRetries: retryForever,
		apply:      func() { c.installAllIDToBasis(pl) },
		resolve: func(bool) {
			if len(quarantined) == 0 {
				c.recordRecovery(downSince)
				return
			}
			remaining := len(quarantined)
			for _, enc := range quarantined {
				enc := enc
				c.send(&relMsg{
					target:     c.switchOf(enc),
					latency:    c.cfg.WriteLatencyNs,
					maxRetries: retryForever,
					apply: func() {
						c.installAllBasisToID(enc)
						c.bypassHolds[enc]--
						if c.bypassHolds[enc] == 0 {
							if err := zswitch.SetBypass(enc, false); err != nil {
								panic(fmt.Sprintf("controlplane: bypass release: %v", err))
							}
						}
					},
					resolve: func(bool) {
						remaining--
						if remaining == 0 {
							c.recordRecovery(downSince)
						}
					},
				})
			}
		},
	})
}

// sortedKeys snapshots byKey's keys in deterministic order.
func (c *Controller) sortedKeys() []string {
	keys := make([]string, 0, len(c.byKey))
	for k := range c.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// installAllIDToBasis repopulates a decoder's dictionary from the
// controller's cache — one batched reliable write's worth of entries.
func (c *Controller) installAllIDToBasis(pl *tofino.Pipeline) {
	for _, k := range c.sortedKeys() {
		m := c.byKey[k]
		if err := zswitch.InstallIDToBasis(pl, m.id, m.basis, c.sim.Now()); err != nil {
			panic(fmt.Sprintf("controlplane: decoder reinstall: %v", err))
		}
	}
}

// installAllBasisToID repopulates an encoder's dictionary from the
// controller's cache.
func (c *Controller) installAllBasisToID(pl *tofino.Pipeline) {
	for _, k := range c.sortedKeys() {
		m := c.byKey[k]
		if err := zswitch.InstallBasisToID(pl, m.basis, m.id, c.sim.Now()); err != nil {
			panic(fmt.Sprintf("controlplane: encoder reinstall: %v", err))
		}
	}
}

// recordRecovery folds one completed reconciliation into the stats.
func (c *Controller) recordRecovery(downSince netsim.Time) {
	if r := int64(c.sim.Now() - downSince); r > c.stats.RecoveryNsMax {
		c.stats.RecoveryNsMax = r
	}
}
