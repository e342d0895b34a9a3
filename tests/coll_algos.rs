//! Property sweep over the collective-algorithm registry: every algorithm
//! on every collective's menu, across group sizes (including the non-power-
//! of-two ones that exercise the halving donation scheme and Bruck's final
//! rotation) and payload sizes from one element to 256 KiB.
//!
//! Two contracts per cell:
//!
//! * **Correctness** — the result matches the serial reference: bitwise for
//!   pure-movement collectives (broadcast, all-gather), within 1e-5 where
//!   the accumulation order is the algorithm's own (reduce, all-reduce,
//!   reduce-scatter). All-reduce must additionally leave every rank with a
//!   byte-identical copy, whatever the algorithm.
//! * **Backend equivalence** — a live run and a `DryRunComm` replay of the
//!   same explicit algorithm emit byte-identical op and link logs, rank by
//!   rank; the dry-run prices exactly the schedule the live mesh executes.
//!
//! The same sweep then repeats on the **bf16 wire** (`CollPlan::wire`): pure
//! movement delivers exactly the once-quantized payload (forwarding re-packs
//! are lossless), reductions stay inside the stated per-hop error envelope
//! (≤ one 2⁻⁸-relative rounding per wire crossing on an element's reduction
//! path), and the live and dry-run schedules remain byte-identical — the
//! packed half-length link records included.
//!
//! Below the live sweeps sit the **schedule properties**: the step lists of
//! [`mesh::coll_steps`] checked directly, without threads, up to 64 members —
//! soundness (no deadlock, no mis-sized message), data flow (each op's
//! postcondition over contribution sets) and pricing (`perf::CostModel::
//! coll_time`, which folds the same lists, equals the closed forms of
//! DESIGN.md §10 wherever those are exact).

use mesh::{
    chain_segments, chunk, coll_steps, replay, Coll, CollAlgo, CollBuf, CollPlan, CommLog, CommOp,
    Communicator, Group, Mesh, RecvMode, Step, WireDtype,
};
use tensor::Rng;

const GROUPS: [usize; 5] = [2, 3, 4, 5, 8];
const SIZES: [usize; 4] = [1, 7, 1023, 65536];

fn payload(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.normal()).collect()
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Element-wise sum of every rank's seeded payload — the reduction ground
/// truth, accumulated in rank order at f32.
fn serial_sum(g: usize, n: usize, seed: u64) -> Vec<f32> {
    let mut acc = vec![0.0f32; n];
    for r in 0..g {
        for (a, x) in acc.iter_mut().zip(payload(seed + r as u64, n)) {
            *a += x;
        }
    }
    acc
}

/// Runs `coll` over the world group under an explicit plan and returns what
/// the plain method of the same name returns: the buffer, the gathered
/// output, or this member's chunk.
fn run<C: Communicator>(
    ctx: &C,
    g: usize,
    coll: Coll,
    plan: CollPlan,
    mut data: Vec<f32>,
) -> Vec<f32> {
    let world = Group::world(g);
    let (n, me) = (data.len(), ctx.rank());
    match coll {
        Coll::AllGather => {
            let mut out = vec![0.0f32; n * g];
            out[me * n..(me + 1) * n].copy_from_slice(&data);
            ctx.collective(coll, &world, CollBuf::Now(&mut out), plan);
            out
        }
        Coll::ReduceScatter => {
            ctx.collective(coll, &world, CollBuf::Now(&mut data), plan);
            data[chunk(n, g, me)].to_vec()
        }
        _ => {
            ctx.collective(coll, &world, CollBuf::Now(&mut data), plan);
            data
        }
    }
}

fn plan(algo: CollAlgo, wire: WireDtype) -> CollPlan {
    CollPlan { algo, wire }
}

const F32: WireDtype = WireDtype::F32;

#[test]
fn broadcast_menu_delivers_the_root_payload_bitwise() {
    for algo in CollAlgo::menu(CommOp::Broadcast) {
        for g in GROUPS {
            for n in SIZES {
                let root = g / 2;
                let seed = 0xB0 + (g * n) as u64;
                let want = payload(seed, n);
                let want_ref = &want;
                let out = Mesh::run(g, move |ctx| {
                    let data = if ctx.rank() == root {
                        want_ref.clone()
                    } else {
                        vec![0.0; n]
                    };
                    run(ctx, g, Coll::Broadcast { root }, plan(*algo, F32), data)
                });
                for (r, d) in out.iter().enumerate() {
                    assert_eq!(d, &want, "{algo:?} g={g} n={n} rank={r}");
                }
            }
        }
    }
}

#[test]
fn reduce_menu_sums_to_the_root() {
    for algo in CollAlgo::menu(CommOp::Reduce) {
        for g in GROUPS {
            for n in SIZES {
                let root = g / 2;
                let seed = 0x4ed + (g * n) as u64;
                let out = Mesh::run(g, move |ctx| {
                    let data = payload(seed + ctx.rank() as u64, n);
                    run(ctx, g, Coll::Reduce { root }, plan(*algo, F32), data)
                });
                let want = serial_sum(g, n, seed);
                assert!(
                    max_abs_diff(&out[root], &want) < 1e-5,
                    "{algo:?} g={g} n={n}"
                );
            }
        }
    }
}

#[test]
fn all_reduce_menu_agrees_bitwise_across_ranks_and_matches_reference() {
    for algo in CollAlgo::menu(CommOp::AllReduce) {
        for g in GROUPS {
            for n in SIZES {
                let seed = 0xA11 + (g * n) as u64;
                let out = Mesh::run(g, move |ctx| {
                    let data = payload(seed + ctx.rank() as u64, n);
                    run(ctx, g, Coll::AllReduce, plan(*algo, F32), data)
                });
                let want = serial_sum(g, n, seed);
                for (r, d) in out.iter().enumerate() {
                    assert_eq!(d, &out[0], "{algo:?} g={g} n={n}: rank {r} differs");
                    assert!(
                        max_abs_diff(d, &want) < 1e-5,
                        "{algo:?} g={g} n={n} rank={r}"
                    );
                }
            }
        }
    }
}

#[test]
fn all_gather_menu_concatenates_bitwise_in_rank_order() {
    for algo in CollAlgo::menu(CommOp::AllGather) {
        for g in GROUPS {
            for n in SIZES {
                let seed = 0x9a + (g * n) as u64;
                let out = Mesh::run(g, move |ctx| {
                    let local = payload(seed + ctx.rank() as u64, n);
                    run(ctx, g, Coll::AllGather, plan(*algo, F32), local)
                });
                let want: Vec<f32> = (0..g).flat_map(|r| payload(seed + r as u64, n)).collect();
                for (r, d) in out.iter().enumerate() {
                    assert_eq!(d, &want, "{algo:?} g={g} n={n} rank={r}");
                }
            }
        }
    }
}

#[test]
fn reduce_scatter_menu_partitions_the_sum() {
    for algo in CollAlgo::menu(CommOp::ReduceScatter) {
        for g in GROUPS {
            for n in SIZES {
                let seed = 0x5c + (g * n) as u64;
                let out = Mesh::run(g, move |ctx| {
                    let data = payload(seed + ctx.rank() as u64, n);
                    run(ctx, g, Coll::ReduceScatter, plan(*algo, F32), data)
                });
                let want = serial_sum(g, n, seed);
                // Blocks concatenated in rank order reassemble the full sum,
                // whatever the (possibly uneven) chunking was.
                let got: Vec<f32> = out.iter().flatten().copied().collect();
                assert_eq!(
                    got.len(),
                    n,
                    "{algo:?} g={g} n={n}: blocks must tile the payload"
                );
                assert!(max_abs_diff(&got, &want) < 1e-5, "{algo:?} g={g} n={n}");
            }
        }
    }
}

/// The collective a sweep cell drives for `op`, rooted mid-group.
fn coll_of(op: CommOp, g: usize) -> Coll {
    match op {
        CommOp::Broadcast => Coll::Broadcast { root: g / 2 },
        CommOp::Reduce => Coll::Reduce { root: g / 2 },
        CommOp::AllReduce => Coll::AllReduce,
        CommOp::AllGather => Coll::AllGather,
        CommOp::ReduceScatter => Coll::ReduceScatter,
        CommOp::Barrier => Coll::Barrier,
    }
}

/// Runs one explicit-plan collective on either backend, bypassing the
/// run's tables. Payload contents are
/// irrelevant here (the dry-run backend moves zeros); only the emitted
/// op/link streams matter.
fn drive<C: Communicator>(ctx: &C, g: usize, op: CommOp, plan: CollPlan, n: usize) {
    let n = if op == CommOp::Barrier { 0 } else { n };
    run(ctx, g, coll_of(op, g), plan, vec![1.0f32; n]);
}

fn assert_identical_logs(live: &[CommLog], dry: &[CommLog], label: &str) {
    assert_eq!(live.len(), dry.len());
    for (l, d) in live.iter().zip(dry) {
        assert_eq!(
            l.ops, d.ops,
            "{label}: op stream diverges at rank {}",
            l.rank
        );
        assert_eq!(
            l.links, d.links,
            "{label}: link stream diverges at rank {}",
            l.rank
        );
    }
}

// ---------------------------------------------------------------------------
// The same sweep on the bf16 wire
// ---------------------------------------------------------------------------

/// One bf16 quantization is off by at most this relative amount (7 explicit
/// mantissa bits → half a ulp is 2⁻⁸ of the magnitude).
const BF16_EPS: f32 = 1.0 / 256.0;

fn quantized(v: &[f32]) -> Vec<f32> {
    v.iter().map(|&x| WireDtype::Bf16.quantize(x)).collect()
}

/// Element-wise Σᵣ |payloadᵣ[i]| — every partial sum a reduction schedule
/// can form is bounded by this, so it anchors the stated error envelope.
fn abs_sum(g: usize, n: usize, seed: u64) -> Vec<f32> {
    let mut acc = vec![0.0f32; n];
    for r in 0..g {
        for (a, x) in acc.iter_mut().zip(payload(seed + r as u64, n)) {
            *a += x.abs();
        }
    }
    acc
}

/// Asserts the stated bf16 reduction error bound: an element's reduction
/// path crosses the wire at most `g` times, each crossing adding one
/// quantization error of at most `BF16_EPS` times the partial-sum magnitude
/// (≤ the absolute mass `abs_sum`). The small additive floor absorbs the
/// f32 reassociation slack the full-width sweep already tolerates (1e-5).
fn assert_within_bf16_bound(got: &[f32], want: &[f32], mass: &[f32], g: usize, label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        let tol = g as f32 * BF16_EPS * mass[i] + 1e-4;
        assert!(
            (a - b).abs() <= tol,
            "{label}: elem {i} got {a} want {b} (tol {tol})"
        );
    }
}

#[test]
fn bf16_broadcast_delivers_the_quantized_payload_bitwise_to_non_roots() {
    let w = WireDtype::Bf16;
    for algo in CollAlgo::menu(CommOp::Broadcast) {
        for g in GROUPS {
            for n in SIZES {
                let root = g / 2;
                let seed = 0xB16 + (g * n) as u64;
                let full = payload(seed, n);
                let want = quantized(&full);
                let full_ref = &full;
                let out = Mesh::run(g, move |ctx| {
                    let data = if ctx.rank() == root {
                        full_ref.clone()
                    } else {
                        vec![0.0; n]
                    };
                    run(ctx, g, Coll::Broadcast { root }, plan(*algo, w), data)
                });
                for (r, d) in out.iter().enumerate() {
                    if r == root {
                        // The root never crosses the wire: full precision.
                        assert_eq!(d, &full, "{algo:?} g={g} n={n} root");
                    } else {
                        // Exactly one quantization, then lossless re-packs:
                        // every non-root agrees bitwise on Q(payload).
                        assert_eq!(d, &want, "{algo:?} g={g} n={n} rank={r}");
                    }
                    for (a, b) in d.iter().zip(&full) {
                        assert!(
                            (a - b).abs() <= b.abs() * BF16_EPS + f32::MIN_POSITIVE,
                            "{algo:?} g={g} n={n} rank={r}: rel error above 2^-8"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn bf16_all_gather_quantizes_each_foreign_block_exactly_once() {
    let w = WireDtype::Bf16;
    for algo in CollAlgo::menu(CommOp::AllGather) {
        for g in GROUPS {
            for n in SIZES {
                let seed = 0x9a16 + (g * n) as u64;
                let out = Mesh::run(g, move |ctx| {
                    let local = payload(seed + ctx.rank() as u64, n);
                    run(ctx, g, Coll::AllGather, plan(*algo, w), local)
                });
                for (r, d) in out.iter().enumerate() {
                    for src in 0..g {
                        let block = &d[src * n..(src + 1) * n];
                        let full = payload(seed + src as u64, n);
                        // Own block never crossed the wire; foreign blocks
                        // carry exactly one quantization however many hops
                        // they were forwarded through.
                        let want = if src == r { full } else { quantized(&full) };
                        assert_eq!(block, &want[..], "{algo:?} g={g} n={n} rank={r} src={src}");
                    }
                }
            }
        }
    }
}

#[test]
fn bf16_reduce_stays_within_the_stated_error_bound() {
    let w = WireDtype::Bf16;
    for algo in CollAlgo::menu(CommOp::Reduce) {
        for g in GROUPS {
            for n in SIZES {
                let root = g / 2;
                let seed = 0x4e16 + (g * n) as u64;
                let out = Mesh::run(g, move |ctx| {
                    let data = payload(seed + ctx.rank() as u64, n);
                    run(ctx, g, Coll::Reduce { root }, plan(*algo, w), data)
                });
                let want = serial_sum(g, n, seed);
                let mass = abs_sum(g, n, seed);
                assert_within_bf16_bound(
                    &out[root],
                    &want,
                    &mass,
                    g,
                    &format!("reduce {algo:?} g={g} n={n}"),
                );
            }
        }
    }
}

#[test]
fn bf16_all_reduce_stays_within_the_stated_error_bound_on_every_rank() {
    let w = WireDtype::Bf16;
    for algo in CollAlgo::menu(CommOp::AllReduce) {
        for g in GROUPS {
            for n in SIZES {
                let seed = 0xA116 + (g * n) as u64;
                let out = Mesh::run(g, move |ctx| {
                    let data = payload(seed + ctx.rank() as u64, n);
                    run(ctx, g, Coll::AllReduce, plan(*algo, w), data)
                });
                let want = serial_sum(g, n, seed);
                let mass = abs_sum(g, n, seed);
                for (r, d) in out.iter().enumerate() {
                    assert_within_bf16_bound(
                        d,
                        &want,
                        &mass,
                        g,
                        &format!("all-reduce {algo:?} g={g} n={n} rank={r}"),
                    );
                }
            }
        }
    }
}

#[test]
fn bf16_reduce_scatter_stays_within_the_stated_error_bound() {
    let w = WireDtype::Bf16;
    for algo in CollAlgo::menu(CommOp::ReduceScatter) {
        for g in GROUPS {
            for n in SIZES {
                let seed = 0x5c16 + (g * n) as u64;
                let out = Mesh::run(g, move |ctx| {
                    let data = payload(seed + ctx.rank() as u64, n);
                    run(ctx, g, Coll::ReduceScatter, plan(*algo, w), data)
                });
                let want = serial_sum(g, n, seed);
                let mass = abs_sum(g, n, seed);
                let got: Vec<f32> = out.iter().flatten().copied().collect();
                assert_eq!(got.len(), n, "{algo:?} g={g} n={n}: blocks must tile");
                assert_within_bf16_bound(
                    &got,
                    &want,
                    &mass,
                    g,
                    &format!("reduce-scatter {algo:?} g={g} n={n}"),
                );
            }
        }
    }
}

#[test]
fn bf16_live_and_dry_run_logs_are_byte_identical_per_algorithm() {
    let w = WireDtype::Bf16;
    for op in [
        CommOp::Broadcast,
        CommOp::Reduce,
        CommOp::AllReduce,
        CommOp::AllGather,
        CommOp::ReduceScatter,
    ] {
        for algo in CollAlgo::menu(op) {
            for g in GROUPS {
                for n in [7usize, 65536] {
                    let half = plan(*algo, w);
                    let (_, live) = Mesh::run_with_logs(g, move |ctx| drive(ctx, g, op, half, n));
                    let (_, dry) =
                        Mesh::dry_run_with_logs(g, move |ctx| drive(ctx, g, op, half, n));
                    assert_identical_logs(
                        &live,
                        &dry,
                        &format!("bf16 {} {algo:?} g={g} n={n}", op.name()),
                    );
                    // The compressed schedule must never move more elements
                    // than the full-width one — and genuinely fewer when
                    // the per-hop segments are big enough to pack (a
                    // 1-element chunk occupies one slot either way).
                    let (_, full) =
                        Mesh::run_with_logs(g, move |ctx| drive(ctx, g, op, plan(*algo, F32), n));
                    let wire_elems = |logs: &[CommLog]| -> usize {
                        logs.iter()
                            .flat_map(|l| l.links.iter().map(|lk| lk.elems))
                            .sum()
                    };
                    assert!(
                        wire_elems(&live) <= wire_elems(&full),
                        "bf16 {} {algo:?} g={g} n={n}: wire grew",
                        op.name()
                    );
                    if n >= 2 * g {
                        assert!(
                            wire_elems(&live) < wire_elems(&full),
                            "bf16 {} {algo:?} g={g} n={n}: no wire saving",
                            op.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn live_and_dry_run_logs_are_byte_identical_per_algorithm() {
    // Two payload sizes: one below every pipelining threshold, one that
    // forces multi-segment chains.
    for op in [
        CommOp::Broadcast,
        CommOp::Reduce,
        CommOp::AllReduce,
        CommOp::AllGather,
        CommOp::ReduceScatter,
        CommOp::Barrier,
    ] {
        for algo in CollAlgo::menu(op) {
            for g in GROUPS {
                for n in [7usize, 65536] {
                    let full = plan(*algo, F32);
                    let (_, live) = Mesh::run_with_logs(g, move |ctx| drive(ctx, g, op, full, n));
                    let (_, dry) =
                        Mesh::dry_run_with_logs(g, move |ctx| drive(ctx, g, op, full, n));
                    assert_identical_logs(
                        &live,
                        &dry,
                        &format!("{} {algo:?} g={g} n={n}", op.name()),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Schedule properties: the step lists themselves, no threads
// ---------------------------------------------------------------------------

/// Every collective with a step list, at every root when it has one.
fn colls(g: usize) -> Vec<Coll> {
    let mut v = vec![Coll::AllReduce, Coll::AllGather, Coll::ReduceScatter];
    for root in 0..g {
        v.push(Coll::Broadcast { root });
        v.push(Coll::Reduce { root });
        v.push(Coll::Gather { root });
    }
    v
}

/// Every (collective, algorithm, group size, payload) cell of the property
/// sweep, each with all members' step lists: groups up to 33 and 64, payloads
/// around the chunking edge cases (fewer elements than members) and past the
/// chain's 32-segment cap.
fn for_every_schedule(mut check: impl FnMut(Coll, CollAlgo, usize, usize, &[Vec<Step>])) {
    for g in (1..=33).chain([64]) {
        for n in [0, 1, g - 1, g, 1000, 70_000] {
            for coll in colls(g) {
                for &algo in CollAlgo::menu(coll.op()) {
                    let lists: Vec<Vec<Step>> =
                        (0..g).map(|me| coll_steps(coll, algo, g, me, n)).collect();
                    check(coll, algo, g, n, &lists);
                }
            }
        }
    }
}

/// (a) Soundness: every `Recv` meets a `Send` of equal range length, every
/// member runs to completion and every queue drains — no schedule can
/// deadlock or mis-size a message, at projection scale included.
#[test]
fn schedules_are_sound() {
    for_every_schedule(|coll, algo, g, n, lists| {
        let label = format!("{coll:?} {algo:?} g={g} n={n}");
        replay(
            lists,
            &label,
            |_, step| match step {
                Step::Send { range, .. } => range.len(),
                _ => unreachable!(),
            },
            |me, step, sent| match step {
                Step::Recv { range, peer, .. } => {
                    assert_eq!(sent, range.len(), "{label}: {peer}->{me} size mismatch")
                }
                _ => unreachable!(),
            },
            |_, _| {},
        );
    });
}

/// (b) Data flow: interpreting the lists over *contribution sets* (bit `r`
/// set = this cell includes member `r`'s data exactly once) proves each
/// collective's postcondition. Buffers are tracked per cell — the intervals
/// between all range boundaries any member uses — so 70 000-element payloads
/// cost as much as 7-element ones.
#[test]
fn schedules_deliver_every_contribution_exactly_once() {
    for_every_schedule(|coll, algo, g, n, lists| {
        let label = format!("{coll:?} {algo:?} g={g} n={n}");
        let slotted = matches!(coll, Coll::AllGather | Coll::Gather { .. });
        let work_len = if slotted { n * g } else { n };
        // Cell boundaries: every range end any step names, plus the chunk (or
        // slot) boundaries the postcondition is stated over.
        let mut cuts: Vec<usize> = (0..=g)
            .map(|i| if slotted { i * n } else { chunk(n, g, i).start })
            .collect();
        cuts.push(work_len);
        for step in lists.iter().flatten() {
            if let Step::Send { range, .. } | Step::Recv { range, .. } = step {
                cuts.extend([range.start, range.end]);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        let cells = |r: &std::ops::Range<usize>| {
            let at = |x: usize| cuts.binary_search(&x).expect("range ends are cuts");
            at(r.start)..at(r.end)
        };
        let ncells = cuts.len() - 1;
        // Initial state: a member's own data everywhere — or, for the slot
        // layouts, only in its own slot (the rest is uninitialised: 0).
        let state: Vec<Vec<u64>> = (0..g)
            .map(|me| {
                (0..ncells)
                    .map(|c| {
                        let own = !slotted || (me * n..(me + 1) * n).contains(&cuts[c]);
                        if own {
                            1u64 << me
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        let state = std::cell::RefCell::new(state);
        replay(
            lists,
            &label,
            |me, step| match step {
                Step::Send { range, .. } => state.borrow()[me][cells(range)].to_vec(),
                _ => unreachable!(),
            },
            |me, step, sent: Vec<u64>| match step {
                Step::Recv { range, mode, .. } => {
                    let mut st = state.borrow_mut();
                    let into = &mut st[me][cells(range)];
                    assert_eq!(into.len(), sent.len(), "{label}: member {me} cell count");
                    for (have, got) in into.iter_mut().zip(sent) {
                        match mode {
                            RecvMode::Copy => *have = got,
                            RecvMode::Combine => {
                                assert_eq!(*have & got, 0, "{label}: member {me} double-adds");
                                *have |= got;
                            }
                        }
                    }
                }
                _ => unreachable!(),
            },
            |me, step| match step {
                // Slot layouts have uniform cells, so rotating by `left`
                // elements rotates by that boundary's cell index.
                Step::Rotate { left } if ncells > 0 => {
                    let by = cuts.binary_search(left).expect("rotation is slot-aligned");
                    state.borrow_mut()[me].rotate_left(by % ncells);
                }
                _ => {}
            },
        );
        let state = state.into_inner();
        let all = if g == 64 { u64::MAX } else { (1u64 << g) - 1 };
        let whole = 0..work_len;
        for (me, held) in state.iter().enumerate() {
            // What each cell of `range` must hold on member `me` afterwards.
            let expect = |range: std::ops::Range<usize>, want: &dyn Fn(usize) -> u64| {
                for c in cells(&range) {
                    assert_eq!(held[c], want(c), "{label}: member {me} cell {c}");
                }
            };
            let slot_owner = |c: usize| 1u64 << (cuts[c] / n.max(1));
            match coll {
                Coll::Broadcast { root } => expect(whole.clone(), &|_| 1 << root),
                Coll::Reduce { root } if me == root => expect(whole.clone(), &|_| all),
                Coll::AllReduce => expect(whole.clone(), &|_| all),
                Coll::ReduceScatter => expect(chunk(n, g, me), &|_| all),
                Coll::AllGather => expect(whole.clone(), &slot_owner),
                Coll::Gather { root } if me == root => expect(whole.clone(), &slot_owner),
                _ => {} // non-roots of a reduce or gather hold scratch
            }
        }
    });
}

/// The textbook α-β price of one menu cell — `n` elements (the per-member
/// block for all-gather, the total payload otherwise) at `beta` seconds per
/// element on the wire. Exact for power-of-two `g` with `n` divisible by `g`
/// and by the chain segment count; the oracle of the pricing test below.
fn closed_form(op: CommOp, algo: CollAlgo, g: usize, n: usize, alpha: f64, beta: f64) -> f64 {
    let (gf, rounds, bb) = (g as f64, (g as f64).log2(), beta * n as f64);
    let segs = chain_segments(n) as f64;
    match (op, algo) {
        (CommOp::Broadcast | CommOp::Reduce, CollAlgo::Tree) => rounds * (alpha + bb),
        (CommOp::Broadcast | CommOp::Reduce, CollAlgo::Chain) => {
            (gf + segs - 2.0) * (alpha + bb / segs)
        }
        (CommOp::AllReduce, CollAlgo::Ring) => 2.0 * (gf - 1.0) * (alpha + bb / gf),
        (CommOp::AllReduce, CollAlgo::Halving) => 2.0 * (rounds * alpha + bb * (gf - 1.0) / gf),
        (CommOp::AllReduce, CollAlgo::Tree) => 2.0 * rounds * (alpha + bb),
        (CommOp::AllGather, CollAlgo::Ring) => (gf - 1.0) * (alpha + bb),
        (CommOp::AllGather, CollAlgo::Bruck) => rounds * alpha + (gf - 1.0) * bb,
        (CommOp::ReduceScatter, CollAlgo::Ring) => (gf - 1.0) * (alpha + bb / gf),
        (CommOp::ReduceScatter, CollAlgo::Halving) => rounds * alpha + bb * (gf - 1.0) / gf,
        (CommOp::Barrier, CollAlgo::Tree) => 2.0 * rounds * alpha,
        cell => panic!("no closed form for menu cell {cell:?}"),
    }
}

/// (c) Pricing: `CostModel::coll_time` is a fold over the lists above — a
/// send occupies its sender for `α + β·(wire bytes / 4)·|range|` and lands
/// when it ends, a receive completes when both sides are ready, a compressed
/// wire pays `γ·elems` once. Where [`closed_form`] is exact the fold must
/// reproduce it, with every rate non-zero.
#[test]
fn the_cost_fold_reproduces_the_closed_forms_where_they_are_exact() {
    let (alpha, beta, gamma) = (2.0e-5, 4.0e-10, 1.0e-10);
    let profile = perf::HardwareProfile {
        alpha,
        beta_intra: beta,
        gamma,
        ..perf::HardwareProfile::frontera_rtx5000()
    };
    for g in [2usize, 4, 8, 16, 32, 64] {
        // One node: every group prices at β_intra.
        let cost = perf::CostModel::new(profile.clone(), mesh::Topology::flat(g, g));
        let ranks: Vec<usize> = (0..g).collect();
        // One chain segment, and the 32-segment cap.
        for payload in [1024usize, 65536] {
            assert!(payload % g == 0 && payload % chain_segments(payload) == 0);
            for wire in [WireDtype::F32, WireDtype::Bf16] {
                for (op, _) in CommOp::KINDS {
                    // A barrier carries nothing.
                    let n = if op == CommOp::Barrier { 0 } else { payload };
                    let beta_wire = beta * wire.bytes_per_elem() as f64 / 4.0;
                    let pack = if wire.is_f32() { 0.0 } else { gamma * n as f64 };
                    for &algo in CollAlgo::menu(op) {
                        let fold = cost.coll_time(op, algo, wire, &ranks, n);
                        let want = closed_form(op, algo, g, n, alpha, beta_wire) + pack;
                        assert!(
                            (fold - want).abs() <= 1e-12 * want,
                            "{} {algo:?} {wire:?} g={g} n={n}: fold {fold} vs closed form {want}",
                            op.name()
                        );
                    }
                }
            }
        }
    }
}
