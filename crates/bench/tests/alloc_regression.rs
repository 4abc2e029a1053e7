//! Allocation-regression gate for the probe hot loop.
//!
//! This test binary installs the counting global allocator and measures
//! the two per-unit costs the engine pays for every work unit, in their
//! warm steady state (pools filled, capture freelists populated):
//!
//! - `instantiate_unit_scoped` — stamping a live world from the
//!   blueprint skeleton, here with a stack on every server.
//!   Pooling/`Arc`-sharing took this from 2634 to 564 allocations per
//!   unit at this scale (the remainder is genuinely per-world state:
//!   node boxes, host stacks, services).
//! - `run_trace` — the probe inner loop. Buffer pooling, capture
//!   freelists, borrow-based verdict scans and no-clone polling took
//!   this from 176 to ~80 allocations per (server, trace) observation;
//!   canned HTTP responses, zero-copy DNS fast paths, shared TCP emit
//!   scratch and UDP sink sockets then took it to ~25 (the remainder
//!   is connection setup/teardown and response assembly).
//!
//! A third, allocation-free count rides along: the simulator events one
//! observation dispatches (`Sim::events_dispatched`), the deterministic
//! reading of the event loop's cost. Two memory gates close the file: the
//! heap bytes a blueprint holds per server, and those its shared flap
//! marks hold per flapping server once a paper-calendar campaign ran.
//!
//! The budgets sit ~50% above the measured numbers: enough headroom for
//! allocator jitter across platforms, tight enough that reintroducing
//! per-packet `Vec` churn (owned `encode()`, capture copies, per-unit
//! `format!` labels…) fails immediately.
//!
//! The allocator's counters are process-global and the harness runs
//! tests on parallel threads, so every test holds [`serial`] while it
//! measures: otherwise one test's delta would include another's
//! allocations.

use ecn_bench::alloc::{allocated_bytes, count_allocations, live_bytes, CountingAlloc};
use ecn_core::{discover_in, run_discovery, run_trace, schedule_for, CampaignConfig};
use ecn_pool::{PoolPlan, WorldBlueprint};
use ecn_stack::AvailabilityModel;
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run this binary's tests one at a time (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // a test that failed while holding the lock poisons it; the counters
    // it guards are still sound, so carry on
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Budget for stamping one unit world from the skeleton (measured: 654).
const INSTANTIATE_BUDGET: u64 = 900;

/// Budget per (server, trace) observation in the probe loop
/// (measured: ~25).
const PER_OBSERVATION_BUDGET: f64 = 40.0;

fn test_cfg() -> CampaignConfig {
    CampaignConfig {
        discovery_rounds: 30,
        traces_per_vantage: Some(1),
        run_traceroute: false,
        ..CampaignConfig::quick(11)
    }
}

#[test]
fn unit_instantiation_allocations_stay_within_budget() {
    let _serial = serial();
    let cfg = test_cfg();
    let plan = PoolPlan {
        churn_at: cfg.batch2_start,
        ..PoolPlan::scaled(40)
    };
    let bp = WorldBlueprint::build(&plan, cfg.seed);
    let every_server: HashSet<_> = bp.servers().iter().map(|s| s.addr).collect();
    let _warm = bp.instantiate_unit_scoped(0, 0, &every_server);
    let (_, allocs) = count_allocations(|| bp.instantiate_unit_scoped(0, 0, &every_server));
    println!("instantiate_unit_scoped: {allocs} allocations");
    assert!(
        allocs < INSTANTIATE_BUDGET,
        "unit instantiation allocation regression: {allocs} (budget {INSTANTIATE_BUDGET})"
    );
}

/// Largest ratio between the bytes a unit stamp allocates for a plan ten
/// times larger and for the small plan.
const STAMP_BYTES_RATIO: f64 = 1.5;

#[test]
fn unit_stamp_bytes_do_not_grow_with_the_topology() {
    // With no targets to install stacks on, a unit world's stamp is the
    // per-world state alone. Link specs are shared and passive links
    // carry no state, so ten times the servers (and links) may not cost
    // anywhere near ten times the bytes.
    let _serial = serial();
    let cfg = test_cfg();
    let stamp_bytes = |servers: usize| {
        let plan = PoolPlan {
            churn_at: cfg.batch2_start,
            ..PoolPlan::scaled(servers)
        };
        let bp = WorldBlueprint::build(&plan, cfg.seed);
        let none = HashSet::new();
        let _warm = bp.instantiate_unit_scoped(0, 0, &none);
        let before = allocated_bytes();
        let world = bp.instantiate_unit_scoped(0, 0, &none);
        let bytes = allocated_bytes() - before;
        (bytes, world.sim.link_count())
    };
    let (small, small_links) = stamp_bytes(40);
    let (large, large_links) = stamp_bytes(400);
    let ratio = large as f64 / small as f64;
    println!(
        "instantiate_unit_scoped, no targets: {small} B ({small_links} links) vs \
         {large} B ({large_links} links) = {ratio:.2}x"
    );
    assert!(
        large_links > 5 * small_links,
        "the large plan is not larger"
    );
    assert!(
        ratio < STAMP_BYTES_RATIO,
        "unit stamp bytes grow with the topology: {ratio:.2}x (limit {STAMP_BYTES_RATIO}x)"
    );
}

/// Most heap bytes a blueprint may hold per server (measured: ~2 500;
/// ~4 700 when every link stored its own properties and route tables kept
/// their growth slack).
const BLUEPRINT_BYTES_PER_SERVER: f64 = 3_500.0;

#[test]
fn blueprint_bytes_per_server_stay_within_budget() {
    // What `WorldBlueprint::build` keeps alive is the floor every process
    // of a campaign pays, parent and workers alike: the skeleton, the
    // databases, the zone and the population. Per server it must stay
    // flat and within budget as the world grows.
    let _serial = serial();
    let cfg = test_cfg();
    for servers in [1_000, 4_000] {
        let plan = PoolPlan {
            churn_at: cfg.batch2_start,
            ..PoolPlan::scaled(servers)
        };
        let before = live_bytes();
        let bp = WorldBlueprint::build(&plan, cfg.seed);
        let per_server = live_bytes().wrapping_sub(before) as f64 / servers as f64;
        println!(
            "blueprint at {servers} servers ({} links): {per_server:.0} B/server",
            bp.link_count()
        );
        assert!(
            per_server < BLUEPRINT_BYTES_PER_SERVER,
            "blueprint memory regression at {servers} servers: {per_server:.0} B/server \
             (budget {BLUEPRINT_BYTES_PER_SERVER})"
        );
    }
}

/// Most heap bytes one flapping server's shared flap marks may hold once
/// every unit of a paper-calendar campaign has run (measured: 240, five
/// 48-byte marks; 384 when the list grew by doubling).
const FLAP_MARK_BYTES_PER_FLAPPER: f64 = 360.0;

#[test]
fn flap_mark_bytes_per_flapping_server_stay_within_budget() {
    // The marks are the one thing unit worlds leave behind in the
    // blueprint: after all 13 units ran the paper calendar (last trace
    // near day 113, ~2 700 flips per flapping server), they hold about
    // five 48-byte marks per flapping server.
    let _serial = serial();
    let cfg = CampaignConfig {
        traces_per_vantage: Some(2),
        discovery_rounds: 25,
        run_traceroute: false,
        ..CampaignConfig::default()
    };
    let plan = PoolPlan {
        churn_at: cfg.batch2_start,
        ..PoolPlan::scaled(40)
    };
    let bp = WorldBlueprint::build(&plan, cfg.seed);
    let targets = discover_in(&mut bp.instantiate_discovery(), &cfg).targets;
    let schedule = schedule_for(&plan.vantages(), &cfg);
    let probed: HashSet<_> = targets.iter().copied().collect();
    let flappers = bp
        .servers()
        .iter()
        .filter(|s| matches!(s.profile.availability, AvailabilityModel::Flapping { .. }))
        .count();
    let before = live_bytes();
    for v in 0..plan.vantages().len() {
        let mut sc = bp.instantiate_unit_scoped(v, 0, &probed);
        for st in schedule.iter().filter(|st| st.vantage == v) {
            if sc.sim.now() < st.start {
                sc.sim.run_until(st.start);
            }
            run_trace(&mut sc, v, st.batch, &targets, &cfg);
        }
    }
    let per_flapper = live_bytes().wrapping_sub(before) as f64 / flappers as f64;
    println!("flap marks: {per_flapper:.0} B per flapping server ({flappers} flappers)");
    assert!(
        flappers > 10,
        "the plan has only {flappers} flapping servers"
    );
    assert!(
        per_flapper < FLAP_MARK_BYTES_PER_FLAPPER,
        "flap-mark memory regression: {per_flapper:.0} B per flapping server \
         (budget {FLAP_MARK_BYTES_PER_FLAPPER})"
    );
}

#[test]
fn probe_loop_allocations_stay_within_budget() {
    let _serial = serial();
    let cfg = test_cfg();
    let (d, mut sc) = run_discovery(&PoolPlan::scaled(40), &cfg);

    // Warm-up trace fills the packet pool and capture freelists.
    let warm = run_trace(&mut sc, 4, 2, &d.targets, &cfg);

    let (rec, allocs) = count_allocations(|| run_trace(&mut sc, 4, 2, &d.targets, &cfg));
    assert_eq!(
        rec.outcomes.len(),
        warm.outcomes.len(),
        "counted trace probed a different target set"
    );
    let per_obs = allocs as f64 / rec.outcomes.len().max(1) as f64;
    println!(
        "run_trace: {allocs} allocations / {} observations = {per_obs:.1} per observation",
        rec.outcomes.len()
    );
    assert!(
        per_obs < PER_OBSERVATION_BUDGET,
        "probe hot-loop allocation regression: {per_obs:.1} allocs/observation \
         (budget {PER_OBSERVATION_BUDGET})"
    );
}

/// Most simulator events one (server, trace) observation may dispatch
/// (measured: 61.5, so ~30% headroom; 285 with tunnelled forwarding off,
/// when every hop of every packet is its own event).
const EVENTS_PER_OBSERVATION_BUDGET: f64 = 80.0;

#[test]
fn probe_loop_events_per_observation_stay_within_budget() {
    // The event loop's work per observation, counted rather than timed:
    // tunnelling collapses transparent multi-hop chains into one arrival,
    // and losing it multiplies the dispatched events.
    let _serial = serial();
    let cfg = test_cfg();
    let (d, mut sc) = run_discovery(&PoolPlan::scaled(40), &cfg);
    let _warm = run_trace(&mut sc, 4, 2, &d.targets, &cfg);
    let before = sc.sim.events_dispatched();
    let rec = run_trace(&mut sc, 4, 2, &d.targets, &cfg);
    let events = sc.sim.events_dispatched() - before;
    let per_obs = events as f64 / rec.outcomes.len().max(1) as f64;
    println!(
        "run_trace: {events} events / {} observations = {per_obs:.2} per observation",
        rec.outcomes.len()
    );
    assert!(
        per_obs < EVENTS_PER_OBSERVATION_BUDGET,
        "event-loop regression: {per_obs:.2} events/observation \
         (budget {EVENTS_PER_OBSERVATION_BUDGET})"
    );
}

#[test]
fn disabled_validator_adds_zero_allocations_to_the_probe_loop() {
    // The validation pass gates on `packets > 0` alone. With it off —
    // every preset that predates the validator — the probe loop must
    // allocate *exactly* what it allocates with the other validation
    // knobs set: configuring the canary or the ECT(1) fraction costs
    // nothing until a scenario actually switches the pass on.
    let _serial = serial();
    let cfg_off = test_cfg();
    let mut cfg_knobs = test_cfg();
    cfg_knobs.validation.ce_canary = true;
    cfg_knobs.validation.ect1_per_1000 = 500;
    assert!(
        !cfg_knobs.validation.enabled(),
        "knobs alone must not enable the pass"
    );
    // Two identically-seeded worlds: the shared RNG advances across
    // traces, so consecutive runs in *one* world see different loss
    // realizations. Twin worlds give identical traffic, so any count
    // difference is the validator's
    let (d, mut sc_off) = run_discovery(&PoolPlan::scaled(40), &cfg_off);
    let (_, mut sc_knobs) = run_discovery(&PoolPlan::scaled(40), &cfg_off);
    for _ in 0..3 {
        let _warm = run_trace(&mut sc_off, 4, 2, &d.targets, &cfg_off);
        let _warm = run_trace(&mut sc_knobs, 4, 2, &d.targets, &cfg_knobs);
    }
    let (rec, off) = count_allocations(|| run_trace(&mut sc_off, 4, 2, &d.targets, &cfg_off));
    let (_, knobs) = count_allocations(|| run_trace(&mut sc_knobs, 4, 2, &d.targets, &cfg_knobs));
    assert!(!rec.outcomes.is_empty());
    assert!(rec.outcomes.iter().all(|o| o.validation.is_none()));
    println!("run_trace: {off} allocs with validation off, {knobs} with knobs set");
    assert_eq!(
        off, knobs,
        "a disabled validator must add zero allocations per observation"
    );
}

/// Budget per (server, trace) observation for the *enabled* validation
/// pass, over and above the base probe loop (measured on twin worlds:
/// ~33 for a 10-packet train + CE canary, ≈3 per probe packet).
const VALIDATION_BUDGET: f64 = 50.0;

#[test]
fn enabled_validator_stays_within_its_allocation_budget() {
    // With the pass on (a 10-packet train + CE canary per server), the
    // extra per-observation allocations are the validation session's
    // setup/teardown — pin them so the train never grows per-packet
    // `Vec` churn.
    let _serial = serial();
    let cfg_off = test_cfg();
    let mut cfg_on = test_cfg();
    cfg_on.validation.packets = 10;
    let (d, mut sc_off) = run_discovery(&PoolPlan::scaled(40), &cfg_off);
    let (_, mut sc_on) = run_discovery(&PoolPlan::scaled(40), &cfg_off);
    for _ in 0..3 {
        let _warm = run_trace(&mut sc_off, 4, 2, &d.targets, &cfg_off);
        let _warm = run_trace(&mut sc_on, 4, 2, &d.targets, &cfg_on);
    }
    let (_, off) = count_allocations(|| run_trace(&mut sc_off, 4, 2, &d.targets, &cfg_off));
    let (rec, on) = count_allocations(|| run_trace(&mut sc_on, 4, 2, &d.targets, &cfg_on));
    assert!(rec.outcomes.iter().all(|o| o.validation.is_some()));
    let extra = on.saturating_sub(off) as f64 / rec.outcomes.len().max(1) as f64;
    println!(
        "run_trace: {off} allocs off, {on} on = {extra:.1} extra per observation \
         ({} observations)",
        rec.outcomes.len()
    );
    assert!(
        extra < VALIDATION_BUDGET,
        "validation-pass allocation regression: {extra:.1} extra allocs/observation \
         (budget {VALIDATION_BUDGET})"
    );
}
