//! Property-based tests for the simulator's data structures and models:
//! the LPM trie against a naive reference, loss-model convergence, ECMP
//! selection bounds, packet-conservation through random line
//! topologies, and the event loop's `(at, order set)` dispatch order.

use ecn_netsim::{
    derive_rng, DropCause, Ipv4Prefix, LinkProps, LossModel, LossProcess, Nanos, PrefixMap,
    RouteEntry, Router, Sim,
};
use ecn_wire::{Datagram, Ecn, IpProto, Ipv4Header};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(Ipv4Addr::from(addr), len))
}

/// Naive reference: linear scan for the longest matching prefix.
fn naive_lookup(entries: &[(Ipv4Prefix, u32)], ip: Ipv4Addr) -> Option<u32> {
    entries
        .iter()
        .filter(|(p, _)| p.contains(ip))
        .max_by_key(|(p, _)| p.len())
        .map(|(_, v)| *v)
}

proptest! {
    #[test]
    fn prefix_map_matches_naive_model(
        raw in proptest::collection::vec((arb_prefix(), any::<u32>()), 0..40),
        probes in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        // deduplicate by prefix, keeping the LAST value (insert semantics)
        let mut entries: Vec<(Ipv4Prefix, u32)> = Vec::new();
        let mut map = PrefixMap::new();
        for (p, v) in raw {
            map.insert(p, v);
            entries.retain(|(q, _)| *q != p);
            entries.push((p, v));
        }
        prop_assert_eq!(map.len(), entries.len());
        for ip in probes.into_iter().map(Ipv4Addr::from) {
            prop_assert_eq!(map.lookup(ip).copied(), naive_lookup(&entries, ip), "ip {}", ip);
        }
    }

    #[test]
    fn prefix_contains_its_own_addresses(p in arb_prefix(), offset in any::<u32>()) {
        let inside = p.nth(offset);
        prop_assert!(p.contains(inside));
    }

    #[test]
    fn loss_means_converge(mean in 0.0f64..0.4) {
        let mut proc = LossProcess::new(LossModel::congested_access(mean));
        let mut rng = derive_rng(42, "prop-loss");
        let n = 400_000u64;
        let drops = (0..n)
            .filter(|i| proc.should_drop(Nanos::from_millis(i * 10), false, &mut rng))
            .count();
        let rate = drops as f64 / n as f64;
        // generous band: burst models converge slowly
        prop_assert!((rate - mean).abs() < 0.03 + mean * 0.25, "mean {mean} rate {rate}");
    }

    #[test]
    fn ecn_biased_loss_prefers_ect(duty in 0.05f64..0.5) {
        let model = LossModel::tos_biased_access(duty, 0.3, 0.9);
        let mut proc = LossProcess::new(model);
        let mut rng = derive_rng(7, "prop-bias");
        let n = 200_000u64;
        let mut ect_drops = 0u64;
        let mut plain_drops = 0u64;
        for i in 0..n {
            let t = Nanos::from_millis(i * 10);
            // alternate markings through the same chain
            if i % 2 == 0 {
                ect_drops += u64::from(proc.should_drop(t, true, &mut rng));
            } else {
                plain_drops += u64::from(proc.should_drop(t, false, &mut rng));
            }
        }
        prop_assert!(ect_drops > plain_drops * 2,
            "ect {ect_drops} plain {plain_drops} at duty {duty}");
    }

    #[test]
    fn ecmp_selection_is_always_in_range(
        links in 1usize..8,
        key in any::<u64>(),
        epoch in any::<u64>(),
    ) {
        let entry = RouteEntry::Ecmp((0..links as u32).map(ecn_netsim::LinkId).collect());
        let chosen = entry.select(key, epoch).expect("non-empty");
        prop_assert!((chosen.0 as usize) < links);
        // deterministic
        prop_assert_eq!(entry.select(key, epoch), Some(chosen));
    }

    #[test]
    fn packets_are_conserved_through_line_topologies(
        hops in 1usize..6,
        packets in 1usize..30,
        loss_p in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        // host A -- r0 -- r1 -- ... -- r(hops-1) -- host B with a lossy
        // middle: every originated packet is either delivered, dropped
        // with a recorded cause, or died of TTL.
        let mut sim = Sim::new(seed);
        let a = sim.add_host("A", Ipv4Addr::new(10, 0, 0, 1));
        let b = sim.add_host("B", Ipv4Addr::new(192, 0, 2, 1));
        let routers: Vec<_> = (0..hops)
            .map(|i| {
                sim.add_router(Router::new(format!("r{i}"), Ipv4Addr::new(100, 64, i as u8, 1)))
            })
            .collect();
        sim.attach_host(a, routers[0], LinkProps::clean(Nanos::from_millis(1)));
        sim.attach_host(b, routers[hops - 1], LinkProps::clean(Nanos::from_millis(1)));
        for w in 0..hops.saturating_sub(1) {
            let props = if w == 0 {
                LinkProps::lossy(Nanos::from_millis(2), loss_p)
            } else {
                LinkProps::clean(Nanos::from_millis(2))
            };
            let (f, bk) = sim.add_duplex(routers[w], routers[w + 1], props);
            sim.route(routers[w], "0.0.0.0/0".parse().unwrap(), RouteEntry::Link(f));
            let _ = bk;
        }
        // default routes towards B for the last router handled by
        // attach_host's /32; remaining routers need a default up-chain too
        for w in 0..hops {
            if w + 1 < hops {
                // already set above
            }
        }
        let h = Ipv4Header::probe(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 0, 2, 1),
            IpProto::Udp,
            Ecn::Ect0,
        );
        let probe = Datagram::compose(Vec::new(), h, |o| {
            ecn_wire::udp::udp_segment_into(h.src, h.dst, 1, 2, b"conservation", o)
        });
        for _ in 0..packets {
            sim.send_from(a, probe.clone());
        }
        sim.run_to_idle();
        let s = sim.counters();
        let accounted = s.delivered
            + s.dropped(DropCause::Loss)
            + s.dropped(DropCause::NoRoute)
            + s.dropped(DropCause::TtlExpired)
            + s.dropped(DropCause::HostMismatch);
        prop_assert_eq!(s.originated as usize, packets);
        prop_assert_eq!(accounted as usize, packets, "all packets accounted for");
    }
}

// ------------------------------------------------------ passive links
//
// A world keeps no `LinkState` for a passive link and forwards over it
// as `now + delay`. That is exact only if offering to a passive link is
// always that delivery and never draws from the shared RNG stream.

use ecn_netsim::{LinkOutcome, LinkState};
use rand::RngCore;

proptest! {
    #[test]
    fn passive_link_offer_is_a_pure_delivery(
        delay in any::<u64>(),
        limit_bytes in 65_535u64..=u64::MAX,
        offers in proptest::collection::vec(
            (0u64..1_000_000_000_000, 0u64..=65_535, any::<bool>()),
            1..40,
        ),
        seed in any::<u64>(),
    ) {
        let props = LinkProps {
            delay: Nanos(delay / 4),
            rate_bps: None,
            queue: QueueDisc::DropTail { limit_bytes },
            loss: LossModel::None,
        };
        prop_assert!(props.is_passive());
        let mut state = LinkState::new(&props);
        let mut rng = derive_rng(seed, "passive-link");
        let mut untouched = rng.clone();
        // virtual time never runs backwards
        let mut times: Vec<_> = offers.iter().map(|(t, _, _)| *t).collect();
        times.sort_unstable();
        for (now, (_, bytes, ect)) in times.into_iter().zip(&offers) {
            let now = Nanos(now);
            prop_assert_eq!(
                props.offer(&mut state, now, *bytes, *ect, &mut rng),
                LinkOutcome::Deliver { at: now + props.delay, ce_mark: false }
            );
        }
        prop_assert_eq!(rng.next_u64(), untouched.next_u64(), "the offer drew randomness");
    }
}

// ------------------------------------------------------ AQM mark safety
//
// RFC 3168 §5 at the queue level: whatever the discipline, parameters,
// backlog and randomness, a CE mark may only ever be applied to a
// markable codepoint — not-ECT traffic is never touched — and the
// marking decision is a pure function of (packet, queue state, RNG
// stream), so identical streams mark identically regardless of how the
// campaign above is sharded or stolen.

use ecn_netsim::{QueueDisc, QueueState, QueueVerdict};

fn arb_aqm() -> impl Strategy<Value = QueueDisc> {
    prop_oneof![
        (0.0f64..=1.0).prop_map(QueueDisc::aqm_mark),
        (0u64..2_000_000).prop_map(|us| QueueDisc::l4s_mark(Nanos(us * 1_000))),
        Just(QueueDisc::red_ecn(64 * 1024)),
        Just(QueueDisc::deep_fifo()),
    ]
}

proptest! {
    #[test]
    fn aqm_never_marks_unmarkable_codepoints(
        disc in arb_aqm(),
        seed in any::<u64>(),
        arrivals in proptest::collection::vec(
            (0u64..60_000, 40u64..1_500, 0u64..4_000_000),
            1..80,
        ),
    ) {
        // the same arrival sequence, once unmarkable and once markable
        let mut rng = derive_rng(seed, "aqm-unmarkable");
        let mut q = QueueState::new(disc);
        for (backlog, bytes, sojourn_us) in &arrivals {
            let v = q.on_arrival(
                *backlog,
                *bytes,
                Nanos(sojourn_us * 1_000),
                false, // not-ECT (or CE): not markable
                &mut rng,
            );
            prop_assert!(
                !matches!(v, QueueVerdict::EnqueueMarked),
                "unmarkable traffic must never be CE-marked by {:?}",
                disc
            );
        }
    }

    #[test]
    fn aqm_marking_is_deterministic_in_the_rng_stream(
        disc in arb_aqm(),
        seed in any::<u64>(),
        ect_pattern in proptest::collection::vec(any::<bool>(), 1..80),
    ) {
        // replaying the identical (arrival, RNG) stream yields identical
        // verdicts — the queue keeps no hidden nondeterministic state, so
        // shard count or stealing order (which never change a link's
        // per-packet stream) cannot change a mark
        let run = |label: &str| {
            let mut rng = derive_rng(seed, label);
            let mut q = QueueState::new(disc);
            ect_pattern
                .iter()
                .enumerate()
                .map(|(i, ect)| {
                    q.on_arrival(
                        (i as u64 * 700) % 40_000,
                        1_000,
                        Nanos(((i as u64 * 131) % 3_000) * 1_000),
                        *ect,
                        &mut rng,
                    )
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run("aqm-replay"), run("aqm-replay"));
    }

    #[test]
    fn mark_prob_extremes_are_exact(
        seed in any::<u64>(),
        sojourn_us in 0u64..10_000,
    ) {
        // prob = 1 marks every markable arrival, prob = 0 marks none —
        // and CodelMark marks exactly when sojourn exceeds the target
        let mut rng = derive_rng(seed, "aqm-extremes");
        let mut always = QueueState::new(QueueDisc::aqm_mark(1.0));
        let mut never = QueueState::new(QueueDisc::aqm_mark(0.0));
        let target = Nanos::from_millis(1);
        let mut codel = QueueState::new(QueueDisc::l4s_mark(target));
        let sojourn = Nanos(sojourn_us * 1_000);
        prop_assert!(matches!(
            always.on_arrival(0, 100, sojourn, true, &mut rng),
            QueueVerdict::EnqueueMarked
        ));
        prop_assert!(matches!(
            never.on_arrival(0, 100, sojourn, true, &mut rng),
            QueueVerdict::Enqueue
        ));
        let v = codel.on_arrival(0, 100, sojourn, true, &mut rng);
        prop_assert_eq!(
            matches!(v, QueueVerdict::EnqueueMarked),
            sojourn > target,
            "CoDel marks exactly above the sojourn target"
        );
    }
}

// ------------------------------------------------------ dispatch order
//
// Every event dispatches in `(at, seq)` order: earliest first, and in the
// order it was scheduled within one instant. Whatever the schedule, the
// timers a host sees must therefore fire exactly in the order of sorting
// every timer ever set by (fire time, order set).

use ecn_netsim::{HostAgent, HostApi};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Every timer set so far as (fire time, token), where the token counts
/// set order; what fired, as (dispatch time, token); and the re-arm plan
/// a handler consumes, one delay list per firing.
#[derive(Default)]
struct TimerLog {
    set: Vec<(Nanos, u64)>,
    fired: Vec<(Nanos, u64)>,
    rearms: VecDeque<Vec<u64>>,
}

impl TimerLog {
    /// Log a timer set at `now` for `now + delay`; returns its token.
    fn arm(&mut self, now: Nanos, delay: u64) -> u64 {
        let token = self.set.len() as u64;
        self.set.push((now + Nanos(delay), token));
        token
    }
}

struct Rearmer(Rc<RefCell<TimerLog>>);

impl HostAgent for Rearmer {
    fn on_datagram(&mut self, _api: &mut HostApi<'_>, _dgram: &Datagram) {}
    fn on_timer(&mut self, api: &mut HostApi<'_>, token: u64) {
        let mut log = self.0.borrow_mut();
        log.fired.push((api.now(), token));
        for delay in log.rearms.pop_front().unwrap_or_default() {
            let token = log.arm(api.now(), delay);
            api.set_timer(Nanos(delay), token);
        }
    }
}

/// One step taken from outside the event loop.
#[derive(Debug, Clone)]
enum TimerOp {
    /// Set timers at `now + delay` each.
    Set(Vec<u64>),
    /// `run_until(now + d)`, which may stop short of pending timers.
    RunFor(u64),
    /// Dispatch one event.
    Step,
}

/// Delays with many exact ties (0 and a few fixed values) among
/// spread-out ones; run lengths draw from the same mix, so a run often
/// ends exactly on a pending timer's instant.
fn timer_delay() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => Just(0u64),
        3 => (0u64..4).prop_map(|k| k * 1_000_000),
        2 => 1u64..5_000_000,
        1 => 1_000_000_000u64..3_000_000_000,
    ]
}

fn timer_op() -> impl Strategy<Value = TimerOp> {
    prop_oneof![
        3 => proptest::collection::vec(timer_delay(), 1..6).prop_map(TimerOp::Set),
        2 => timer_delay().prop_map(TimerOp::RunFor),
        2 => Just(TimerOp::Step),
    ]
}

proptest! {
    #[test]
    fn timers_fire_in_time_then_set_order(
        ops in proptest::collection::vec(timer_op(), 1..40),
        rearms in proptest::collection::vec(
            proptest::collection::vec(timer_delay(), 0..3),
            0..40,
        ),
    ) {
        let mut sim = Sim::new(1);
        let host = sim.add_host("h", Ipv4Addr::new(10, 0, 0, 1));
        let log = Rc::new(RefCell::new(TimerLog {
            rearms: rearms.into(),
            ..TimerLog::default()
        }));
        sim.set_agent(host, Box::new(Rearmer(log.clone())));
        for op in ops {
            match op {
                TimerOp::Set(delays) => {
                    for delay in delays {
                        let token = log.borrow_mut().arm(sim.now(), delay);
                        sim.set_timer(host, Nanos(delay), token);
                    }
                }
                TimerOp::RunFor(d) => {
                    let t = sim.now() + Nanos(d);
                    sim.run_until(t);
                    prop_assert_eq!(sim.now(), t);
                    // everything due has fired, nothing later has
                    let log = log.borrow();
                    let due = log.set.iter().filter(|(at, _)| *at <= t).count();
                    prop_assert_eq!(log.fired.len(), due);
                }
                TimerOp::Step => {
                    let pending = log.borrow().set.len() > log.borrow().fired.len();
                    prop_assert_eq!(sim.step(), pending);
                }
            }
        }
        sim.run_to_idle();
        let log = log.borrow();
        let mut want = log.set.clone();
        want.sort();
        prop_assert_eq!(&log.fired, &want);
    }
}
