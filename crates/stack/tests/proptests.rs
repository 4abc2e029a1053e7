//! Property-based tests of the TCP state machine: arbitrary segment fuzz
//! must never panic, data must arrive intact under arbitrary chunking, and
//! the ECN handshake matrix must follow RFC 3168 for every mode pairing.
//! Evaluators of one flap chain that share checkpoints must answer as if
//! each replayed the chain alone.

use ecn_netsim::Nanos;
use ecn_stack::{Availability, AvailabilityModel, EcnMode, Emit, FlapMarks, TcpConn, TcpState};
use ecn_wire::{Ecn, TcpFlags, TcpHeader};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;
use std::sync::Arc;

const C: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 40000);
const S: (Ipv4Addr, u16) = (Ipv4Addr::new(192, 0, 2, 80), 80);

/// What one `_into` call appends.
fn emits(op: impl FnOnce(&mut Vec<Emit>)) -> Vec<Emit> {
    let mut out = Vec::new();
    op(&mut out);
    out
}

fn open_pair(client: EcnMode, server: EcnMode) -> (TcpConn, TcpConn) {
    let (mut c, syn) = TcpConn::connect(C, S, 1000, client);
    let (mut s, syn_ack) = TcpConn::accept(S, C, 9000, &syn.header, server);
    let mut acks = Vec::new();
    c.on_segment_into(&syn_ack.header, &[], syn_ack.ip_ecn, &mut acks);
    for e in acks {
        s.on_segment_into(&e.header, &e.payload, e.ip_ecn, &mut Vec::new());
    }
    (c, s)
}

/// Deliver every emitted segment until both sides go quiet.
fn exchange(a: &mut TcpConn, b: &mut TcpConn, mut a_to_b: Vec<Emit>) {
    let mut b_to_a: Vec<Emit> = vec![];
    for _ in 0..200 {
        if a_to_b.is_empty() && b_to_a.is_empty() {
            break;
        }
        let mut nb = vec![];
        for e in a_to_b.drain(..) {
            b.on_segment_into(&e.header, &e.payload, e.ip_ecn, &mut nb);
        }
        let mut na = vec![];
        for e in b_to_a.drain(..) {
            a.on_segment_into(&e.header, &e.payload, e.ip_ecn, &mut na);
        }
        b_to_a = nb;
        a_to_b = na;
    }
}

fn arb_mode() -> impl Strategy<Value = EcnMode> {
    prop_oneof![
        Just(EcnMode::Off),
        Just(EcnMode::On),
        Just(EcnMode::ReflectFlags)
    ]
}

proptest! {
    #[test]
    fn fuzzed_segments_never_panic_and_never_negotiate_falsely(
        flags in 0u16..0x200,
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        ecn_bits in 0u8..4,
    ) {
        let (mut c, _syn) = TcpConn::connect(C, S, 1, EcnMode::On);
        let hdr = TcpHeader {
            src_port: S.1,
            dst_port: C.1,
            seq,
            ack,
            flags: TcpFlags(flags),
            window,
            urgent: 0,
            options: vec![],
        };
        c.on_segment_into(&hdr, &payload, Ecn::from_bits(ecn_bits), &mut Vec::new());
        // a random segment is essentially never a valid ECN-setup SYN-ACK
        // for our SYN (ack must equal iss+1 = 2); if it is, flags must
        // actually be ECN-setup.
        if c.ecn_negotiated {
            prop_assert!(TcpFlags(flags).is_ecn_setup_syn_ack());
            prop_assert_eq!(ack, 2);
        }
    }

    #[test]
    fn data_arrives_intact_under_arbitrary_chunking(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..800), 1..8),
    ) {
        let (mut c, mut s) = open_pair(EcnMode::On, EcnMode::On);
        let mut expected = Vec::new();
        for chunk in &chunks {
            expected.extend_from_slice(chunk);
            let out = emits(|o| c.send_into(chunk, o));
            exchange(&mut c, &mut s, out);
        }
        prop_assert_eq!(s.take_received(), expected);
        prop_assert!(c.all_acked());
    }

    #[test]
    fn ecn_handshake_matrix_follows_rfc3168(client in arb_mode(), server in arb_mode()) {
        let (c, s) = open_pair(client, server);
        prop_assert_eq!(c.state, TcpState::Established);
        prop_assert_eq!(s.state, TcpState::Established);
        // negotiation succeeds iff client requested AND server is a
        // compliant ECN responder
        let should = client == EcnMode::On && server == EcnMode::On;
        prop_assert_eq!(c.ecn_negotiated, should, "client side");
        prop_assert_eq!(s.ecn_negotiated, should, "server side");
        // a reflect-flags server never yields a negotiated connection
        if server == EcnMode::ReflectFlags {
            prop_assert!(!c.ecn_negotiated);
        }
    }

    #[test]
    fn close_is_graceful_from_any_data_state(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        close_first: bool,
    ) {
        let (mut c, mut s) = open_pair(EcnMode::Off, EcnMode::Off);
        let out = emits(|o| c.send_into(&data, o));
        exchange(&mut c, &mut s, out);
        if close_first {
            let fin = emits(|o| c.close_into(o));
            exchange(&mut c, &mut s, fin);
            let fin2 = emits(|o| s.close_into(o));
            exchange(&mut s, &mut c, fin2);
        } else {
            let fin = emits(|o| s.close_into(o));
            exchange(&mut s, &mut c, fin);
            let fin2 = emits(|o| c.close_into(o));
            exchange(&mut c, &mut s, fin2);
        }
        prop_assert_eq!(c.state, TcpState::Closed);
        prop_assert_eq!(s.state, TcpState::Closed);
        prop_assert_eq!(s.take_received(), data);
    }

    #[test]
    fn retransmission_recovers_from_any_single_segment_loss(
        data in proptest::collection::vec(any::<u8>(), 1..4000),
        lose_idx in any::<proptest::sample::Index>(),
    ) {
        let (mut c, mut s) = open_pair(EcnMode::On, EcnMode::On);
        let mut out = emits(|o| c.send_into(&data, o));
        if !out.is_empty() {
            let idx = lose_idx.index(out.len());
            out.remove(idx); // the network eats one segment
        }
        exchange(&mut c, &mut s, out);
        // drive RTOs until everything is acked (bounded loop)
        for _ in 0..20 {
            if c.all_acked() {
                break;
            }
            let rext = emits(|o| c.on_rto_into(o));
            exchange(&mut c, &mut s, rext);
        }
        prop_assert!(c.all_acked());
        prop_assert_eq!(s.take_received(), data);
    }
}

// ------------------------------------------------- ECN validator oracle
//
// The validation state machine vs a naive reference model: for arbitrary
// parameters, session codepoints and per-packet path behaviours, the
// controller's verdict must equal the spec prose recomputed from scratch
// — and no path that erases marks may ever reach `Capable`.

use ecn_stack::{EcnValidator, ValidationOutcome, ValidatorParams};

/// What the path does to one packet of the validation train.
#[derive(Debug, Clone, Copy)]
enum PathAction {
    /// Deliver the mark untouched.
    Pass,
    /// Erase any mark to not-ECT (a bleacher).
    Bleach,
    /// Rewrite ECT(x) to the other ECT codepoint; erase CE to ECT(0)
    /// (a re-marking middlebox that also suppresses congestion signals).
    Remark,
    /// CE-mark the packet (an AQM signalling congestion).
    MarkCe,
    /// Drop it (no report reaches the sender).
    Drop,
}

fn apply_path(action: PathAction, sent: Ecn) -> Option<Ecn> {
    Some(match action {
        PathAction::Pass => sent,
        PathAction::Bleach => Ecn::NotEct,
        PathAction::Remark => match sent {
            Ecn::Ect0 | Ecn::Ce => Ecn::Ect1,
            Ecn::Ect1 => Ecn::Ect0,
            Ecn::NotEct => Ecn::NotEct,
        },
        PathAction::MarkCe => Ecn::Ce,
        PathAction::Drop => return None,
    })
}

/// The naive reference: recompute the verdict from the docs, with no
/// shared code or state machine — first mangled report wins, any intact
/// (or CE-marked) arrival confirms, silence splits on peer liveness.
fn reference_outcome(
    params: &ValidatorParams,
    session: Ecn,
    actions: &[PathAction],
    control_reachable: bool,
) -> ValidationOutcome {
    let n = params.testing_packets as usize;
    let mut failure = None;
    let mut confirmed = 0u32;
    let mut any_feedback = false;
    for (i, action) in actions.iter().enumerate().take(n) {
        let sent = if params.ce_canary && i + 1 == n {
            Ecn::Ce
        } else {
            session
        };
        let Some(arrived) = apply_path(*action, sent) else {
            continue;
        };
        any_feedback = true;
        let ok = arrived == sent || arrived == Ecn::Ce;
        if ok {
            confirmed += 1;
        } else if failure.is_none() {
            failure = Some(if sent == Ecn::Ce {
                ValidationOutcome::FailedCeSuppressed
            } else if arrived == Ecn::NotEct {
                ValidationOutcome::FailedBleached
            } else {
                ValidationOutcome::FailedRemarked
            });
        }
    }
    if let Some(f) = failure {
        f
    } else if confirmed > 0 {
        ValidationOutcome::Capable
    } else if !any_feedback && !control_reachable {
        ValidationOutcome::Inconclusive
    } else {
        ValidationOutcome::FailedBlackHole
    }
}

fn arb_action() -> impl Strategy<Value = PathAction> {
    prop_oneof![
        Just(PathAction::Pass),
        Just(PathAction::Bleach),
        Just(PathAction::Remark),
        Just(PathAction::MarkCe),
        Just(PathAction::Drop),
    ]
}

proptest! {
    #[test]
    fn validator_matches_the_naive_reference(
        packets in 1u32..=12,
        ce_canary in any::<bool>(),
        ect1_session in any::<bool>(),
        control_reachable in any::<bool>(),
        actions in proptest::collection::vec(arb_action(), 12),
    ) {
        let params = ValidatorParams {
            testing_packets: packets,
            ce_canary,
            ..ValidatorParams::default()
        };
        let session = if ect1_session { Ecn::Ect1 } else { Ecn::Ect0 };
        let mut v = EcnValidator::new(params);
        let mut reports = Vec::new();
        for (i, action) in actions.iter().take(packets as usize).enumerate() {
            let sent = v.next_codepoint(session);
            // transition check: the send schedule matches the naive one
            let expected = if ce_canary && i as u32 + 1 == packets {
                Ecn::Ce
            } else {
                session
            };
            prop_assert_eq!(sent, expected, "packet {} mark", i);
            if let Some(arrived) = apply_path(*action, sent) {
                reports.push((sent, arrived));
            }
        }
        // testing budget exhausted: later traffic goes unmarked
        prop_assert_eq!(v.next_codepoint(session), Ecn::NotEct);
        for (sent, arrived) in reports {
            v.on_peer_report(sent, arrived);
        }
        let got = v.conclude(Nanos::ZERO, control_reachable);
        let want = reference_outcome(&params, session, &actions, control_reachable);
        prop_assert_eq!(got, want);
        prop_assert_eq!(v.outcome(), got, "conclude() and outcome() agree");
        // exactly the failed verdicts allow a retest after the cool-off
        prop_assert_eq!(v.maybe_retest(Nanos::from_secs(3600)), got.is_failed());
    }

    #[test]
    fn no_bleaching_path_ever_validates(
        packets in 1u32..=12,
        ce_canary in any::<bool>(),
        ect1_session in any::<bool>(),
        control_reachable in any::<bool>(),
        // every packet is either stripped to not-ECT or dropped — a
        // bleaching path, whatever the mix
        bleach_or_drop in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let params = ValidatorParams {
            testing_packets: packets,
            ce_canary,
            ..ValidatorParams::default()
        };
        let session = if ect1_session { Ecn::Ect1 } else { Ecn::Ect0 };
        let mut v = EcnValidator::new(params);
        for bleach in bleach_or_drop.iter().take(packets as usize) {
            let sent = v.next_codepoint(session);
            if *bleach {
                v.on_peer_report(sent, Ecn::NotEct);
            }
        }
        let got = v.conclude(Nanos::ZERO, control_reachable);
        prop_assert!(
            got != ValidationOutcome::Capable,
            "a path delivering no intact mark must never validate (got {:?})",
            got
        );
    }
}

proptest! {
    #[test]
    fn evaluators_sharing_flap_marks_answer_as_unshared_ones(
        evaluators in 2usize..=5,
        seed in any::<u64>(),
        mean_up_s in 3_600u64..=3 * 3_600,
        mean_down_s in 15u64..=120,
        schedule in any::<u64>(),
    ) {
        let model = AvailabilityModel::Flapping {
            mean_up: Nanos::from_secs(mean_up_s),
            mean_down: Nanos::from_secs(mean_down_s),
        };
        // two flips per up/down cycle: ~12 × SPACING flips by the horizon
        // (about 250 days at the pool's 2 h / 45 s)
        let horizon = Nanos::from_secs(6 * FlapMarks::SPACING * (mean_up_s + mean_down_s));
        let label = "avail-192.0.2.1";
        let mut rng = SmallRng::seed_from_u64(schedule);
        // per evaluator, non-decreasing query times ending at the horizon:
        // scattered over it, with bursts inside one residence interval
        let queries: Vec<Vec<Nanos>> = (0..evaluators)
            .map(|_| {
                let mut times = vec![horizon];
                for _ in 0..rng.gen_range(1..60) {
                    let at = if rng.gen_bool(0.25) {
                        let back = rng.gen_range(0..Nanos::from_secs(mean_down_s).0);
                        times[times.len() - 1].0.saturating_sub(back)
                    } else {
                        rng.gen_range(0..=horizon.0)
                    };
                    times.push(Nanos(at));
                }
                times.sort();
                times
            })
            .collect();
        let marks = Arc::new(FlapMarks::new(model, seed, label));
        let mut shared: Vec<Availability> = (0..evaluators)
            .map(|_| Availability::new(model, seed, label).sharing(marks.clone()))
            .collect();
        let mut alone: Vec<Availability> = (0..evaluators)
            .map(|_| Availability::new(model, seed, label))
            .collect();
        let mut next = vec![0usize; evaluators];
        // interleave the evaluators' queries in random order
        loop {
            let open: Vec<usize> = (0..evaluators)
                .filter(|&e| next[e] < queries[e].len())
                .collect();
            if open.is_empty() {
                break;
            }
            let e = open[rng.gen_range(0..open.len())];
            let at = queries[e][next[e]];
            next[e] += 1;
            prop_assert_eq!(
                shared[e].is_up(at),
                alone[e].is_up(at),
                "evaluator {} at {:?}",
                e,
                at
            );
        }
        prop_assert!(marks.kept() >= 10, "only {} marks by the horizon", marks.kept());
    }
}
