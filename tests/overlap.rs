//! The prefetch contract: `summa_{nn,nt,tn}` post iteration `l+1`'s panels
//! (and let iteration `l`'s reduce ride the fabric) behind iteration `l`'s
//! GEMM, and that must be a pure *scheduling* change against the paper's
//! Algorithms 1–3 as written. The serial loop lives here, and only here, as
//! [`oracle`]: results are **bitwise identical** to it — same accumulation
//! order, same floats — and the wire carries exactly the same bytes; only
//! *when* the transfers move differs. The dry-run backend must agree: on
//! the virtual clock the oracle hides nothing, the posted schedule does, and
//! no device's timeline gets longer.

use optimus::mesh::{Communicator, Grid2d, Group, Mesh2d};
use optimus::perf::tracecheck::hidden_comm_time;
use optimus::summa::{collect_blocks, distribute, summa_nn, summa_nt, summa_tn};
use optimus::tensor::gemm::{gemm_acc, Form};
use optimus::tensor::{Rng, Tensor};
use optimus::trace::{DeviceTrace, Event, OpMeta};

/// The paper's serial SUMMA loop over local blocks `a`, `b`: every round
/// broadcasts its panels, computes, and (NT/TN) reduces to round `l`'s owner,
/// each call blocking. Each round's product lands in a zeroed partial that is
/// then added onto `C` — the accumulation order `summa` fixes. Generic over
/// the backend: the bitwise reference on the live mesh, the "hides nothing"
/// reference on the dry-run clock.
fn oracle<C: Communicator>(form: Form, g: &Grid2d<C>, a: &Tensor, b: &Tensor) -> Tensor {
    let (mb, nb, kb) = match form {
        Form::NN => (a.rows(), b.cols(), a.cols()),
        Form::NT => (a.rows(), b.rows(), a.cols()),
        Form::TN => (a.cols(), b.cols(), a.rows()),
    };
    // The root's block, or an equally sized blank to receive it into.
    let bcast = |group: &Group, root: usize, mine: bool, src: &Tensor| {
        let mut panel = vec![0.0; src.len()];
        if mine {
            panel.copy_from_slice(src.as_slice());
        }
        g.ctx().broadcast(group, root, &mut panel);
        panel
    };
    let mut c = Tensor::zeros(&[mb, nb]);
    for l in 0..g.q() {
        let mut part = vec![0.0; mb * nb];
        match form {
            Form::NN => {
                let a_panel = bcast(g.row_group(), l, g.col() == l, a);
                let b_panel = bcast(g.col_group(), l, g.row() == l, b);
                gemm_acc(form, &mut part, mb, nb, &a_panel, &b_panel, kb);
                for (ci, p) in c.as_mut_slice().iter_mut().zip(&part) {
                    *ci += *p;
                }
            }
            Form::NT => {
                let b_panel = bcast(g.col_group(), l, g.row() == l, b);
                gemm_acc(form, &mut part, mb, nb, a.as_slice(), &b_panel, kb);
                g.ctx().reduce(g.row_group(), l, &mut part);
                if g.col() == l {
                    c.as_mut_slice().copy_from_slice(&part);
                }
            }
            Form::TN => {
                let a_panel = bcast(g.row_group(), l, g.col() == l, a);
                gemm_acc(form, &mut part, mb, nb, &a_panel, b.as_slice(), kb);
                g.ctx().reduce(g.col_group(), l, &mut part);
                if g.row() == l {
                    c.as_mut_slice().copy_from_slice(&part);
                }
            }
        }
    }
    c
}

/// The schedule under test.
fn posted<C: Communicator>(form: Form, g: &Grid2d<C>, a: &Tensor, b: &Tensor) -> Tensor {
    match form {
        Form::NN => summa_nn(g, a, b),
        Form::NT => summa_nt(g, a, b),
        Form::TN => summa_tn(g, a, b),
    }
}

/// Global operands of one product with three distinct dimensions, so every
/// form moves differently-shaped panels (and the two pipelined buffers of a
/// product differ in size): nn is `A[m,k]·B[k,n]`, nt is `A[m,k]·B[n,k]ᵀ`,
/// tn is `A[k,m]ᵀ·B[k,n]` — all produce `C[m,n]`.
fn operands(form: Form, q: usize, rng: &mut Rng) -> (Tensor, Tensor) {
    let (m, k, n) = (3 * q, 2 * q, 5 * q);
    let (sa, sb) = match form {
        Form::NN => ([m, k], [k, n]),
        Form::NT => ([m, k], [n, k]),
        Form::TN => ([k, m], [k, n]),
    };
    (Tensor::randn(&sa, 1.0, rng), Tensor::randn(&sb, 1.0, rng))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn summa_products_are_bitwise_identical_with_and_without_overlap() {
    for q in [1usize, 2, 3, 4] {
        let mut rng = Rng::new(17 + q as u64);
        for form in [Form::NN, Form::NT, Form::TN] {
            let (a, b) = operands(form, q, &mut rng);
            let live = |product: fn(Form, &Grid2d, &Tensor, &Tensor) -> Tensor| {
                let (blocks, logs) = Mesh2d::run_with_logs(q, |g| {
                    product(form, g, &distribute(g, &a), &distribute(g, &b))
                });
                (collect_blocks(&blocks, q), logs)
            };
            let (want, want_logs) = live(oracle);
            let (got, got_logs) = live(posted);
            assert_eq!(
                bits(&got),
                bits(&want),
                "summa {form:?} diverged from the serial loop at q={q}"
            );
            for (w, g) in want_logs.iter().zip(&got_logs) {
                assert_eq!(
                    g.total_link_elems(),
                    w.total_link_elems(),
                    "summa {form:?} moved different bytes on rank {} at q={q}",
                    w.rank
                );
                // With nothing to prefetch the two are the same program.
                if q == 1 {
                    assert_eq!(g.ops, w.ops, "{form:?} op stream at q=1");
                    assert_eq!(g.links, w.links, "{form:?} link stream at q=1");
                }
            }
        }
    }
}

/// Prices every collective at β per wire element plus a fixed α — enough
/// structure that hiding transfers visibly shortens the virtual timeline.
fn pricer(meta: &OpMeta) -> u64 {
    2_000 + 8 * meta.wire_elems as u64
}

/// The virtual-clock makespan of a device: the latest op completion.
fn makespan(dev: &DeviceTrace) -> u64 {
    dev.events
        .iter()
        .filter_map(|e| match e {
            Event::Op { t1_ns, .. } => Some(*t1_ns),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

#[test]
fn overlap_shortens_the_virtual_clock_without_moving_extra_bytes() {
    let q = 3;
    let (a, b) = operands(Form::NN, q, &mut Rng::new(9));
    let dry = |product: fn(Form, &Grid2d<_>, &Tensor, &Tensor) -> Tensor| {
        let (_, logs, traces) = Mesh2d::dry_run_traced(q, pricer, |g| {
            product(Form::NN, g, &distribute(g, &a), &distribute(g, &b))
        });
        (logs, traces)
    };
    let (serial_logs, serial_traces) = dry(oracle);
    let (posted_logs, posted_traces) = dry(posted);

    // Identical bytes on every link, device by device.
    for (s, p) in serial_logs.iter().zip(&posted_logs) {
        assert_eq!(
            s.total_link_elems(),
            p.total_link_elems(),
            "prefetch changed rank {}'s wire volume",
            s.rank
        );
    }

    // The serial loop hides nothing; the posted one does, and every
    // device's modeled timeline gets no longer.
    assert_eq!(hidden_comm_time(&serial_traces), 0.0);
    assert!(
        hidden_comm_time(&posted_traces) > 0.0,
        "posted dry run hid no communication time"
    );
    for (s, p) in serial_traces.iter().zip(&posted_traces) {
        assert!(
            makespan(p) <= makespan(s),
            "rank {}: posted virtual makespan {} exceeds serial {}",
            s.rank,
            makespan(p),
            makespan(s)
        );
    }
    // And strictly shorter for at least one device: prefetch must pay off
    // somewhere on the virtual clock.
    assert!(
        posted_traces
            .iter()
            .zip(&serial_traces)
            .any(|(p, s)| makespan(p) < makespan(s)),
        "prefetch never shortened any device's virtual timeline"
    );
}
