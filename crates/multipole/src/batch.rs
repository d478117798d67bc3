//! Batched SoA evaluation kernels: M2P lane groups and P2P source spans.
//!
//! The scalar kernels in [`expansion`](crate::expansion) evaluate one
//! (target, node) interaction at a time, interleaved with tree traversal.
//! This module provides the dense "execute" half of a two-phase evaluator:
//! a list compiler (in `mbt-treecode`) turns traversals into flat task
//! lists, and these kernels burn through the lists in lane groups whose
//! width is the **dispatched vector width** of the running CPU
//! ([`crate::simd::m2p_lanes`]: 8×f64 on AVX-512, 4×f64 otherwise). Every
//! kernel is monomorphized over the lane count `L` and written against the
//! [`F64Lanes`]/[`F32Lanes`] types from [`crate::simd`], whose elementwise
//! ops are the exact shape LLVM lowers to full-width vector registers; the
//! public entry points run the monomorphized body through
//! [`crate::simd::dispatch`] so it is compiled with the instruction set the
//! CPU was probed to support. [`M2P_LANES`] remains the baseline
//! (scalar-fallback) group width; the P2P span kernels instead run a
//! *fixed* logical width ([`P2P_LANES`]/[`P2P_LANES_F32`]) at every level
//! so their summation order never depends on the dispatched level.
//!
//! # Determinism contract
//!
//! Per lane, the group kernels run the **same Legendre recurrences and
//! multiply/accumulate association** as their scalar counterparts
//! ([`ExpansionRef::potential_at_degree_with`](crate::ExpansionRef::potential_at_degree_with)
//! etc.), but convert the observation offset to spherical form
//! *algebraically* — `cos θ = dz/r`, `sin θ = r_xy/r`, `e^{iφ} =
//! (dx + i·dy)/r_xy` — instead of round-tripping through
//! `acos`/`atan2`/`sin_cos`. The quantities are mathematically identical
//! and agree to ULP precision (the kernel tests pin ≤ 1e-13 relative per
//! lane), but the serial libm calls that dominate small-degree setup are
//! replaced by straight-line `sqrt`/`div` the vectorizer packs across
//! lanes. Lanes are arithmetically independent and the lane-`l` operation
//! sequence does not depend on `L`, so the same task produces bit-identical
//! output in a 4-wide and an 8-wide group — dispatching a wider width on
//! wider hardware cannot change results (pinned by
//! `lane_width_does_not_change_values`). Together with the compiled mode's
//! documented reassociation (per-interaction partials are summed in
//! degree-bucket order), the compiled/scalar divergence stays well below
//! 1e-12 relative for the workloads the treecode serves.
//!
//! The `_f32` P2P kernels are the one deliberate exception: they evaluate
//! the near field in single precision over an f32 mirror of the particle
//! SoA and widen only the final reduction. Their use is gated by the
//! Theorem 1/2 budget test in [`crate::bounds::f32_near_admissible`] — the
//! caller opts in only when the far-field truncation error already
//! dominates the f32 near-field roundoff.
//!
//! # Layout
//!
//! Lane-major triangular tables: entry `(n, m)` of lane `l` lives at
//! `tri_index(n, m) * L + l`, so each recurrence step is one wide-register
//! op per table row (see DESIGN.md §10/§12 for the inspection notes).

use mbt_geometry::Vec3;

use crate::complex::Complex;
use crate::simd::{self, F32Lanes, F64Lanes};
use crate::tables::{tri_index, tri_len, Tables};

/// Baseline (scalar-fallback) targets per M2P group and the default lane
/// count of [`M2pGroup`]. The dispatched width — what the list executor
/// actually assembles groups with — is [`crate::simd::m2p_lanes`], which
/// widens to 8 on AVX-512.
pub const M2P_LANES: usize = 4;

/// Logical accumulator lanes of the f64 P2P span kernels — fixed at the
/// widest register width (AVX-512, 8×f64) for **every** SIMD level.
/// Narrower levels execute the identical 8-lane arithmetic in split
/// registers (two ymm on AVX2), so the summation order — and therefore
/// every bit of the result — is independent of the dispatched level;
/// [`crate::simd::p2p_lanes_f64`] reports only the hardware register
/// width the level lowers to. Independent per-lane partial sums are what
/// permit packed adds in the first place: LLVM will not reassociate a
/// single serial `f64` reduction on its own.
pub const P2P_LANES: usize = 8;

/// Logical accumulator lanes of the f32 P2P span kernels (one AVX-512
/// register of f32, two ymm on AVX2) — level-invariant exactly like
/// [`P2P_LANES`].
pub const P2P_LANES_F32: usize = 16;

/// One group of up to `L` same-degree M2P tasks: per lane an expansion
/// (center + triangular `m ≥ 0` coefficient span) and an observation
/// point. Callers pad short groups by repeating a valid lane and ignore
/// the padded outputs — lanes are arithmetically independent, so a padded
/// tail lane cannot perturb the live lanes (pinned by
/// `padded_tail_lanes_never_contribute`).
#[derive(Debug, Clone, Copy)]
pub struct M2pGroup<'a, const L: usize = M2P_LANES> {
    /// Expansion centers, one per lane.
    pub centers: [Vec3; L],
    /// Observation points, one per lane.
    pub points: [Vec3; L],
    /// Coefficient spans; each must hold at least `tri_len(degree)`
    /// entries for the degree the workspace is prepared to.
    pub coeffs: [&'a [Complex]; L],
}

/// Reusable lane-major scratch for the batched M2P kernels: the shared
/// normalization table for the current degree bucket plus per-lane
/// Legendre and accumulator arrays. One `BatchWorkspace` lives per
/// evaluation chunk; [`BatchWorkspace::prepare_degree`] is called once per
/// degree bucket, which is what amortizes table setup across every task
/// in the bucket.
#[derive(Debug)]
pub struct BatchWorkspace {
    degree: usize,
    /// Lane stride the buffers are sized for (≥ any kernel's `L`).
    lanes: usize,
    /// `norm(n, m)` for the prepared degree, indexed by `tri_index` —
    /// shared across lanes (it depends only on `(n, m)`).
    norm: Vec<f64>,
    /// Lane-major `P_n^m(cos θ)`.
    leg_p: Vec<f64>,
    /// Lane-major `P_n^m / sin θ` (`m ≥ 1`; `m = 0` entries unused).
    leg_q: Vec<f64>,
    /// Lane-major `dP_n^m/dθ`.
    leg_d: Vec<f64>,
    /// Lane-major per-degree partial sums (potential).
    acc_pot: Vec<f64>,
    /// Lane-major per-degree partial sums (θ-derivative).
    acc_dth: Vec<f64>,
    /// Lane-major per-degree partial sums (φ-derivative).
    acc_dph: Vec<f64>,
}

impl Default for BatchWorkspace {
    fn default() -> Self {
        BatchWorkspace::new()
    }
}

impl BatchWorkspace {
    /// An empty workspace; call [`BatchWorkspace::prepare_degree`] before
    /// running a group kernel.
    #[must_use]
    pub fn new() -> BatchWorkspace {
        BatchWorkspace {
            degree: 0,
            lanes: 0,
            norm: Vec::new(), // lint: allow(alloc, workspace construction, once per chunk)
            leg_p: Vec::new(), // lint: allow(alloc, workspace construction, once per chunk)
            leg_q: Vec::new(), // lint: allow(alloc, workspace construction, once per chunk)
            leg_d: Vec::new(), // lint: allow(alloc, workspace construction, once per chunk)
            acc_pot: Vec::new(), // lint: allow(alloc, workspace construction, once per chunk)
            acc_dth: Vec::new(), // lint: allow(alloc, workspace construction, once per chunk)
            acc_dph: Vec::new(), // lint: allow(alloc, workspace construction, once per chunk)
        }
    }

    /// Sizes the lane buffers for `degree` at the **dispatched** lane
    /// width ([`crate::simd::m2p_lanes`]) and fills the normalization
    /// table — once per degree bucket, not per task.
    pub fn prepare_degree(&mut self, degree: usize) {
        self.prepare_degree_lanes(degree, simd::m2p_lanes());
    }

    /// Sizes the lane buffers for `degree` at an explicit lane stride
    /// (the `L` the caller will run kernels with). Buffers grow
    /// monotonically, so a workspace cycled through ascending buckets
    /// allocates only on the first visit to each high-water mark.
    pub fn prepare_degree_lanes(&mut self, degree: usize, lanes: usize) {
        let len = tri_len(degree);
        if self.leg_p.len() < len * lanes {
            self.leg_p.resize(len * lanes, 0.0);
            self.leg_q.resize(len * lanes, 0.0);
            self.leg_d.resize(len * lanes, 0.0);
        }
        if self.norm.len() < len {
            self.norm.resize(len, 0.0);
        }
        if self.acc_pot.len() < (degree + 1) * lanes {
            self.acc_pot.resize((degree + 1) * lanes, 0.0);
            self.acc_dth.resize((degree + 1) * lanes, 0.0);
            self.acc_dph.resize((degree + 1) * lanes, 0.0);
        }
        let t = Tables::get();
        for n in 0..=degree {
            for m in 0..=n {
                self.norm[tri_index(n, m)] = t.norm(n, m as i64);
            }
        }
        self.degree = degree;
        self.lanes = self.lanes.max(lanes);
    }

    /// The degree the workspace is currently prepared for.
    #[inline]
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The lane stride the buffers are sized for.
    #[inline]
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

/// Lane-major `P_n^m` via the same recurrences as
/// [`Legendre::recompute`](crate::Legendre) — identical operation order
/// per lane, so each lane's values match the scalar table bit for bit.
#[inline(always)]
fn legendre_p_lanes<const L: usize>(degree: usize, x: F64Lanes<L>, s: F64Lanes<L>, p: &mut [f64]) {
    F64Lanes::<L>::splat(1.0).store(&mut p[tri_index(0, 0) * L..]);
    let mut pmm = F64Lanes::<L>::splat(1.0);
    for m in 1..=degree {
        let df = F64Lanes::splat((2 * m - 1) as f64);
        pmm = pmm * (df * s);
        pmm.store(&mut p[tri_index(m, m) * L..]);
    }
    for m in 0..degree {
        let c = F64Lanes::splat((2 * m + 1) as f64);
        let dst = tri_index(m + 1, m) * L;
        let src = tri_index(m, m) * L;
        let f = x * c;
        (f * F64Lanes::load(&p[src..])).store(&mut p[dst..]);
    }
    for n in 2..=degree {
        let a_c = F64Lanes::splat((2 * n - 1) as f64);
        for m in 0..=(n - 2) {
            let b = F64Lanes::splat((n + m - 1) as f64);
            let c = F64Lanes::splat((n - m) as f64);
            let i0 = tri_index(n, m) * L;
            let i1 = tri_index(n - 1, m) * L;
            let i2 = tri_index(n - 2, m) * L;
            let a = x * a_c;
            let v = (a * F64Lanes::load(&p[i1..]) - b * F64Lanes::load(&p[i2..])) / c;
            v.store(&mut p[i0..]);
        }
    }
}

/// Lane-major evaluation of all three Legendre families (`P`, `P/sin θ`,
/// `dP/dθ`), mirroring the scalar recurrences operation for operation.
#[inline(always)]
fn legendre_pqd_lanes<const L: usize>(
    degree: usize,
    x: F64Lanes<L>,
    s: F64Lanes<L>,
    p: &mut [f64],
    q: &mut [f64],
    d: &mut [f64],
) {
    legendre_p_lanes(degree, x, s, p);
    // diagonal seeds for S_m^m = (2m-1)!! sinθ^{m-1}
    let mut smm = F64Lanes::<L>::splat(1.0);
    for m in 1..=degree {
        let df = F64Lanes::splat((2 * m - 1) as f64);
        smm = if m == 1 { df } else { smm * df * s };
        smm.store(&mut q[tri_index(m, m) * L..]);
    }
    for m in 1..degree {
        let c = F64Lanes::splat((2 * m + 1) as f64);
        let dst = tri_index(m + 1, m) * L;
        let src = tri_index(m, m) * L;
        let f = x * c;
        (f * F64Lanes::load(&q[src..])).store(&mut q[dst..]);
    }
    for n in 2..=degree {
        let a_c = F64Lanes::splat((2 * n - 1) as f64);
        for m in 1..=(n - 2) {
            let b = F64Lanes::splat((n + m - 1) as f64);
            let c = F64Lanes::splat((n - m) as f64);
            let i0 = tri_index(n, m) * L;
            let i1 = tri_index(n - 1, m) * L;
            let i2 = tri_index(n - 2, m) * L;
            let a = x * a_c;
            let v = (a * F64Lanes::load(&q[i1..]) - b * F64Lanes::load(&q[i2..])) / c;
            v.store(&mut q[i0..]);
        }
    }
    // θ-derivatives
    for n in 0..=degree {
        let row0 = tri_index(n, 0) * L;
        if n >= 1 {
            let p1 = tri_index(n, 1) * L;
            (-F64Lanes::<L>::load(&p[p1..])).store(&mut d[row0..]);
        } else {
            F64Lanes::<L>::splat(0.0).store(&mut d[row0..]);
        }
        for m in 1..=n {
            let i0 = tri_index(n, m) * L;
            let pv = if n >= 1 && m < n {
                F64Lanes::<L>::load(&q[tri_index(n - 1, m) * L..])
            } else {
                F64Lanes::splat(0.0)
            };
            let nv = F64Lanes::splat(n as f64);
            let nm = F64Lanes::splat((n + m) as f64);
            (nv * x * F64Lanes::load(&q[i0..]) - nm * pv).store(&mut d[i0..]);
        }
    }
}

/// Algebraic spherical setup shared by the M2P kernels: radius inverse,
/// `cos θ`, `sin θ`, and `e^{iφ}` per lane, with no `acos`/`atan2`.
/// `r_xy = 0` (z-axis) pins `e^{iφ} = 1`, matching
/// `Spherical::from_cartesian`'s `φ = 0`.
#[inline(always)]
#[allow(clippy::type_complexity)]
fn spherical_setup<const L: usize>(
    centers: &[Vec3; L],
    points: &[Vec3; L],
) -> (
    F64Lanes<L>,
    F64Lanes<L>,
    F64Lanes<L>,
    F64Lanes<L>,
    F64Lanes<L>,
) {
    let dx = F64Lanes::<L>::from_fn(|l| points[l].x - centers[l].x);
    let dy = F64Lanes::<L>::from_fn(|l| points[l].y - centers[l].y);
    let dz = F64Lanes::<L>::from_fn(|l| points[l].z - centers[l].z);
    let rxy2 = dx * dx + dy * dy;
    let r = (rxy2 + dz * dz).sqrt();
    let rxy = rxy2.sqrt();
    for l in 0..L {
        debug_assert!(r.0[l] > 0.0, "evaluation at the expansion center");
    }
    let inv_r = F64Lanes::splat(1.0) / r;
    let cos_t = dz / r;
    let sin_t = rxy / r;
    let e1_re = F64Lanes::from_fn(|l| {
        // lint: allow(float_cmp, exact z-axis: φ convention pinned to 0)
        if rxy.0[l] == 0.0 {
            1.0
        } else {
            dx.0[l] / rxy.0[l]
        }
    });
    let e1_im = F64Lanes::from_fn(|l| {
        // lint: allow(float_cmp, exact z-axis: φ convention pinned to 0)
        if rxy.0[l] == 0.0 {
            0.0
        } else {
            dy.0[l] / rxy.0[l]
        }
    });
    (inv_r, cos_t, sin_t, e1_re, e1_im)
}

/// Evaluates one group of same-degree M2P tasks (the degree the workspace
/// was last [`prepare_degree`](BatchWorkspace::prepare_degree)'d for).
/// Lane `l` of the result matches
/// [`ExpansionRef::potential_at_degree_with`](crate::ExpansionRef::potential_at_degree_with)
/// for that lane's (expansion, point, degree) to ULP precision, and does
/// not depend on `L` (see the module-level determinism contract). The
/// workspace must have been prepared with a lane stride ≥ `L`.
#[must_use]
pub fn m2p_potential_group<const L: usize>(
    g: &M2pGroup<'_, L>,
    ws: &mut BatchWorkspace,
) -> [f64; L] {
    simd::dispatch(|| {
        m2p_potential_group_core(
            &g.centers,
            &g.points,
            &|ti| {
                (
                    F64Lanes::<L>::from_fn(|l| g.coeffs[l][ti].re),
                    F64Lanes::<L>::from_fn(|l| g.coeffs[l][ti].im),
                )
            },
            ws,
        )
    })
}

/// [`m2p_potential_group`] for `L` tasks that share one expansion: the
/// per-term coefficient becomes a single broadcast instead of an
/// `L`-pointer gather, which roughly halves the inner-loop cost. The
/// list executor uses this for the same-node task runs the chunk
/// compiler's accept-all classification emits. A broadcast lane holds
/// the same value the gather would have produced, so lane `l` is
/// bit-identical to the general kernel's (pinned by
/// `uniform_group_matches_gather_group`).
#[must_use]
pub fn m2p_potential_group_uniform<const L: usize>(
    center: Vec3,
    coeffs: &[Complex],
    points: &[Vec3; L],
    ws: &mut BatchWorkspace,
) -> [f64; L] {
    let centers = [center; L];
    simd::dispatch(|| {
        m2p_potential_group_core(
            &centers,
            points,
            &|ti| {
                (
                    F64Lanes::<L>::splat(coeffs[ti].re),
                    F64Lanes::<L>::splat(coeffs[ti].im),
                )
            },
            ws,
        )
    })
}

#[inline(always)]
fn m2p_potential_group_core<const L: usize>(
    centers: &[Vec3; L],
    points: &[Vec3; L],
    coeff: &impl Fn(usize) -> (F64Lanes<L>, F64Lanes<L>),
    ws: &mut BatchWorkspace,
) -> [f64; L] {
    let degree = ws.degree;
    debug_assert!(ws.lanes >= L, "workspace prepared narrower than kernel");
    let (inv_r, cos_t, sin_t, e1_re, e1_im) = spherical_setup(centers, points);
    legendre_p_lanes(degree, cos_t, sin_t, &mut ws.leg_p);

    let acc = &mut ws.acc_pot[..(degree + 1) * L];
    acc.fill(0.0);
    let norm = &ws.norm;
    let leg = &ws.leg_p;
    let mut eim_re = F64Lanes::<L>::splat(1.0);
    let mut eim_im = F64Lanes::<L>::splat(0.0);
    for m in 0..=degree {
        let w = if m == 0 { 1.0 } else { 2.0 };
        for n in m..=degree {
            let ti = tri_index(n, m);
            let nr = F64Lanes::splat(norm[ti]);
            let row = n * L;
            let (c_re, c_im) = coeff(ti);
            let rot = c_re * eim_re - c_im * eim_im;
            let term = F64Lanes::splat(w) * rot * nr * F64Lanes::load(&leg[ti * L..]);
            (F64Lanes::load(&acc[row..]) + term).store(&mut acc[row..]);
        }
        let re = eim_re * e1_re - eim_im * e1_im;
        let im = eim_re * e1_im + eim_im * e1_re;
        eim_re = re;
        eim_im = im;
    }
    let mut phi = F64Lanes::<L>::splat(0.0);
    let mut rpow = inv_r;
    for n in 0..=degree {
        phi += F64Lanes::load(&acc[n * L..]) * rpow;
        rpow = rpow * inv_r;
    }
    phi.0
}

/// Potential-and-gradient analogue of [`m2p_potential_group`]; lane `l`
/// matches
/// [`ExpansionRef::field_at_degree_with`](crate::ExpansionRef::field_at_degree_with)
/// to ULP precision and does not depend on `L` (see the module-level
/// determinism contract).
#[must_use]
pub fn m2p_field_group<const L: usize>(
    g: &M2pGroup<'_, L>,
    ws: &mut BatchWorkspace,
) -> ([f64; L], [Vec3; L]) {
    simd::dispatch(|| {
        m2p_field_group_core(
            &g.centers,
            &g.points,
            &|ti| {
                (
                    F64Lanes::<L>::from_fn(|l| g.coeffs[l][ti].re),
                    F64Lanes::<L>::from_fn(|l| g.coeffs[l][ti].im),
                )
            },
            ws,
        )
    })
}

/// Shared-expansion variant of [`m2p_field_group`]; see
/// [`m2p_potential_group_uniform`] for the broadcast-vs-gather contract.
#[must_use]
pub fn m2p_field_group_uniform<const L: usize>(
    center: Vec3,
    coeffs: &[Complex],
    points: &[Vec3; L],
    ws: &mut BatchWorkspace,
) -> ([f64; L], [Vec3; L]) {
    let centers = [center; L];
    simd::dispatch(|| {
        m2p_field_group_core(
            &centers,
            points,
            &|ti| {
                (
                    F64Lanes::<L>::splat(coeffs[ti].re),
                    F64Lanes::<L>::splat(coeffs[ti].im),
                )
            },
            ws,
        )
    })
}

#[inline(always)]
fn m2p_field_group_core<const L: usize>(
    centers: &[Vec3; L],
    points: &[Vec3; L],
    coeff: &impl Fn(usize) -> (F64Lanes<L>, F64Lanes<L>),
    ws: &mut BatchWorkspace,
) -> ([f64; L], [Vec3; L]) {
    let degree = ws.degree;
    debug_assert!(ws.lanes >= L, "workspace prepared narrower than kernel");
    // cos φ + i sin φ doubles as the in-plane unit vector of the setup.
    let (inv_r, cos_t, sin_t, cos_p, sin_p) = spherical_setup(centers, points);
    {
        let BatchWorkspace {
            leg_p,
            leg_q,
            leg_d,
            ..
        } = ws;
        legendre_pqd_lanes(degree, cos_t, sin_t, leg_p, leg_q, leg_d);
    }

    let rows = (degree + 1) * L;
    let BatchWorkspace {
        norm,
        leg_p,
        leg_q,
        leg_d,
        acc_pot,
        acc_dth,
        acc_dph,
        ..
    } = ws;
    let pot = &mut acc_pot[..rows];
    let dth = &mut acc_dth[..rows];
    let dph = &mut acc_dph[..rows];
    pot.fill(0.0);
    dth.fill(0.0);
    dph.fill(0.0);
    // e1 = cos φ + i sin φ, as in the scalar field kernel
    let mut eim_re = F64Lanes::<L>::splat(1.0);
    let mut eim_im = F64Lanes::<L>::splat(0.0);
    for m in 0..=degree {
        let w = if m == 0 { 1.0 } else { 2.0 };
        for n in m..=degree {
            let ti = tri_index(n, m);
            let nr = F64Lanes::splat(norm[ti]);
            let row = n * L;
            let lrow = ti * L;
            let (c_re, c_im) = coeff(ti);
            let rot_re = c_re * eim_re - c_im * eim_im;
            let wnr = F64Lanes::splat(w) * rot_re * nr;
            (F64Lanes::load(&pot[row..]) + wnr * F64Lanes::load(&leg_p[lrow..]))
                .store(&mut pot[row..]);
            (F64Lanes::load(&dth[row..]) + wnr * F64Lanes::load(&leg_d[lrow..]))
                .store(&mut dth[row..]);
            if m >= 1 {
                let rot_im = c_re * eim_im + c_im * eim_re;
                let t = F64Lanes::splat(-2.0 * m as f64) * rot_im * nr;
                (F64Lanes::load(&dph[row..]) + t * F64Lanes::load(&leg_q[lrow..]))
                    .store(&mut dph[row..]);
            }
        }
        let re = eim_re * cos_p - eim_im * sin_p;
        let im = eim_re * sin_p + eim_im * cos_p;
        eim_re = re;
        eim_im = im;
    }
    let mut phi = F64Lanes::<L>::splat(0.0);
    let mut g_r = F64Lanes::<L>::splat(0.0);
    let mut g_t = F64Lanes::<L>::splat(0.0);
    let mut g_p = F64Lanes::<L>::splat(0.0);
    let mut rpow1 = inv_r;
    for n in 0..=degree {
        let rpow2 = rpow1 * inv_r;
        let potv = F64Lanes::<L>::load(&pot[n * L..]);
        phi += potv * rpow1;
        g_r += F64Lanes::splat(-((n + 1) as f64)) * potv * rpow2;
        g_t += F64Lanes::<L>::load(&dth[n * L..]) * rpow2;
        g_p += F64Lanes::<L>::load(&dph[n * L..]) * rpow2;
        rpow1 = rpow2;
    }
    let mut grad_out = [Vec3::ZERO; L];
    for (l, out) in grad_out.iter_mut().enumerate() {
        let e_r = Vec3::new(sin_t.0[l] * cos_p.0[l], sin_t.0[l] * sin_p.0[l], cos_t.0[l]);
        let e_t = Vec3::new(
            cos_t.0[l] * cos_p.0[l],
            cos_t.0[l] * sin_p.0[l],
            -sin_t.0[l],
        );
        let e_p = Vec3::new(-sin_p.0[l], cos_p.0[l], 0.0);
        *out = e_r * g_r.0[l] + e_t * g_t.0[l] + e_p * g_p.0[l];
    }
    (phi.0, grad_out)
}

/// Near-field potential over one SoA source span, **without** a
/// zero-distance guard: the caller must have excluded the self particle
/// (the list compiler splits spans around it). Each pair performs the
/// same arithmetic as the scalar near-field loop; only the summation
/// order differs ([`P2P_LANES`] independent accumulators at every
/// dispatch level, the tail padded with zero-charge lanes).
#[must_use]
pub fn p2p_potential_span(
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
    t: Vec3,
    eps2: f64,
) -> f64 {
    simd::dispatch(|| p2p_potential_span_impl::<P2P_LANES>(xs, ys, zs, qs, t, eps2))
}

#[inline(always)]
fn p2p_potential_span_impl<const L: usize>(
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
    t: Vec3,
    eps2: f64,
) -> f64 {
    debug_assert!(xs.len() == ys.len() && ys.len() == zs.len() && zs.len() == qs.len());
    // Hoisted into lane splats: `t` is passed indirectly (three f64s), and
    // field loads inside the loop defeat the vectorizer at opt-level 3.
    let tx = F64Lanes::<L>::splat(t.x);
    let ty = F64Lanes::<L>::splat(t.y);
    let tz = F64Lanes::<L>::splat(t.z);
    let ev = F64Lanes::<L>::splat(eps2);
    let main = xs.len() - xs.len() % L;
    let mut acc = F64Lanes::<L>::splat(0.0);
    for (((xc, yc), zc), qc) in xs[..main]
        .chunks_exact(L)
        .zip(ys[..main].chunks_exact(L))
        .zip(zs[..main].chunks_exact(L))
        .zip(qs[..main].chunks_exact(L))
    {
        let dx = F64Lanes::<L>::load(xc) - tx;
        let dy = F64Lanes::<L>::load(yc) - ty;
        let dz = F64Lanes::<L>::load(zc) - tz;
        let r2 = dx * dx + dy * dy + dz * dz + ev;
        acc += F64Lanes::load(qc) / r2.sqrt();
    }
    // Tail: padded full-vector iteration; see the f32 kernel for the
    // `q = 0` at `x = f64::MAX` pad-lane contract (exactly +0.0).
    if main < xs.len() {
        let rem = xs.len() - main;
        let mut px = [f64::MAX; L];
        let mut py = [0.0f64; L];
        let mut pz = [0.0f64; L];
        let mut pq = [0.0f64; L];
        px[..rem].copy_from_slice(&xs[main..]);
        py[..rem].copy_from_slice(&ys[main..]);
        pz[..rem].copy_from_slice(&zs[main..]);
        pq[..rem].copy_from_slice(&qs[main..]);
        let dx = F64Lanes::<L>::load(&px) - tx;
        let dy = F64Lanes::<L>::load(&py) - ty;
        let dz = F64Lanes::<L>::load(&pz) - tz;
        let r2 = dx * dx + dy * dy + dz * dz + ev;
        acc += F64Lanes::load(&pq) / r2.sqrt();
    }
    acc.sum()
}

/// Near-field potential over one SoA span with the external-target guard:
/// pairs at exactly zero (softened) distance contribute nothing and are
/// not counted, matching the scalar external-point loop. Returns the
/// potential and the number of counted pairs.
#[must_use]
pub fn p2p_potential_span_guarded(
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
    t: Vec3,
    eps2: f64,
) -> (f64, u64) {
    simd::dispatch(|| p2p_potential_span_guarded_impl::<P2P_LANES>(xs, ys, zs, qs, t, eps2))
}

#[inline(always)]
fn p2p_potential_span_guarded_impl<const L: usize>(
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
    t: Vec3,
    eps2: f64,
) -> (f64, u64) {
    debug_assert!(xs.len() == ys.len() && ys.len() == zs.len() && zs.len() == qs.len());
    // See `p2p_potential_span` for why `t` is hoisted into locals.
    let (tx, ty, tz) = (t.x, t.y, t.z);
    let main = xs.len() - xs.len() % L;
    let mut acc = [0.0f64; L];
    let mut cnt = [0u64; L];
    for (((xc, yc), zc), qc) in xs[..main]
        .chunks_exact(L)
        .zip(ys[..main].chunks_exact(L))
        .zip(zs[..main].chunks_exact(L))
        .zip(qs[..main].chunks_exact(L))
    {
        for l in 0..L {
            let dx = xc[l] - tx;
            let dy = yc[l] - ty;
            let dz = zc[l] - tz;
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            if r2 > 0.0 {
                acc[l] += qc[l] / r2.sqrt();
                cnt[l] += 1;
            }
        }
    }
    let mut phi = 0.0;
    let mut pairs = 0u64;
    for l in 0..L {
        phi += acc[l];
        pairs += cnt[l];
    }
    for j in main..xs.len() {
        let dx = xs[j] - tx;
        let dy = ys[j] - ty;
        let dz = zs[j] - tz;
        let r2 = dx * dx + dy * dy + dz * dz + eps2;
        if r2 > 0.0 {
            phi += qs[j] / r2.sqrt();
            pairs += 1;
        }
    }
    (phi, pairs)
}

/// Near-field potential and gradient over one SoA span with the
/// zero-distance guard (the scalar field loop guards both source and
/// external targets). The self particle, when in range, must already be
/// excluded by span splitting. Returns `(Φ, ∇Φ, counted pairs)`.
#[must_use]
pub fn p2p_field_span_guarded(
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
    t: Vec3,
    eps2: f64,
) -> (f64, Vec3, u64) {
    simd::dispatch(|| p2p_field_span_guarded_impl::<P2P_LANES>(xs, ys, zs, qs, t, eps2))
}

#[inline(always)]
fn p2p_field_span_guarded_impl<const L: usize>(
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
    t: Vec3,
    eps2: f64,
) -> (f64, Vec3, u64) {
    debug_assert!(xs.len() == ys.len() && ys.len() == zs.len() && zs.len() == qs.len());
    // See `p2p_potential_span` for why `t` is hoisted into locals.
    let (tx, ty, tz) = (t.x, t.y, t.z);
    let main = xs.len() - xs.len() % L;
    let mut acc_phi = [0.0f64; L];
    let mut acc_gx = [0.0f64; L];
    let mut acc_gy = [0.0f64; L];
    let mut acc_gz = [0.0f64; L];
    let mut cnt = [0u64; L];
    for (((xc, yc), zc), qc) in xs[..main]
        .chunks_exact(L)
        .zip(ys[..main].chunks_exact(L))
        .zip(zs[..main].chunks_exact(L))
        .zip(qs[..main].chunks_exact(L))
    {
        for l in 0..L {
            // d = target − source, as in the scalar field loop (the
            // gradient uses the signed components)
            let dx = tx - xc[l];
            let dy = ty - yc[l];
            let dz = tz - zc[l];
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            if r2 > 0.0 {
                let r = r2.sqrt();
                let f = -qc[l] / (r2 * r);
                acc_phi[l] += qc[l] / r;
                acc_gx[l] += dx * f;
                acc_gy[l] += dy * f;
                acc_gz[l] += dz * f;
                cnt[l] += 1;
            }
        }
    }
    let mut phi = 0.0;
    let mut grad = Vec3::ZERO;
    let mut pairs = 0u64;
    for l in 0..L {
        phi += acc_phi[l];
        grad += Vec3::new(acc_gx[l], acc_gy[l], acc_gz[l]);
        pairs += cnt[l];
    }
    for j in main..xs.len() {
        let dx = tx - xs[j];
        let dy = ty - ys[j];
        let dz = tz - zs[j];
        let r2 = dx * dx + dy * dy + dz * dz + eps2;
        if r2 > 0.0 {
            let r = r2.sqrt();
            let f = -qs[j] / (r2 * r);
            phi += qs[j] / r;
            grad += Vec3::new(dx * f, dy * f, dz * f);
            pairs += 1;
        }
    }
    (phi, grad, pairs)
}

/// f32 near-field potential over one span of the f32 SoA mirror,
/// **without** a zero-distance guard (self particle excluded by span
/// splitting). Pair arithmetic is f32; only the final lane reduction is
/// widened to f64. The caller opts in via
/// [`crate::bounds::f32_near_admissible`].
#[must_use]
pub fn p2p_potential_span_f32(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    qs: &[f32],
    t: Vec3,
    eps2: f64,
) -> f64 {
    simd::dispatch(|| p2p_potential_span_f32_impl::<P2P_LANES_F32>(xs, ys, zs, qs, t, eps2))
}

#[inline(always)]
fn p2p_potential_span_f32_impl<const L: usize>(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    qs: &[f32],
    t: Vec3,
    eps2: f64,
) -> f64 {
    debug_assert!(xs.len() == ys.len() && ys.len() == zs.len() && zs.len() == qs.len());
    let tx = F32Lanes::<L>::splat(t.x as f32);
    let ty = F32Lanes::<L>::splat(t.y as f32);
    let tz = F32Lanes::<L>::splat(t.z as f32);
    let ev = F32Lanes::<L>::splat(eps2 as f32);
    let main = xs.len() - xs.len() % L;
    let mut acc = F32Lanes::<L>::splat(0.0);
    for (((xc, yc), zc), qc) in xs[..main]
        .chunks_exact(L)
        .zip(ys[..main].chunks_exact(L))
        .zip(zs[..main].chunks_exact(L))
        .zip(qs[..main].chunks_exact(L))
    {
        let dx = F32Lanes::<L>::load(xc) - tx;
        let dy = F32Lanes::<L>::load(yc) - ty;
        let dz = F32Lanes::<L>::load(zc) - tz;
        let r2 = dx * dx + dy * dy + dz * dz + ev;
        acc += F32Lanes::load(qc) / r2.sqrt();
    }
    // Tail: pad to one more full vector instead of a scalar loop (spans
    // are ~leaf-sized, so the tail is a large fraction of the work). Pad
    // lanes carry `q = 0` at `x = f32::MAX`, so `dx²` overflows to +inf
    // and the lane contributes exactly `0/∞ = +0.0` — value-neutral and
    // identical at every dispatch level.
    if main < xs.len() {
        let rem = xs.len() - main;
        let mut px = [f32::MAX; L];
        let mut py = [0.0f32; L];
        let mut pz = [0.0f32; L];
        let mut pq = [0.0f32; L];
        px[..rem].copy_from_slice(&xs[main..]);
        py[..rem].copy_from_slice(&ys[main..]);
        pz[..rem].copy_from_slice(&zs[main..]);
        pq[..rem].copy_from_slice(&qs[main..]);
        let dx = F32Lanes::<L>::load(&px) - tx;
        let dy = F32Lanes::<L>::load(&py) - ty;
        let dz = F32Lanes::<L>::load(&pz) - tz;
        let r2 = dx * dx + dy * dy + dz * dz + ev;
        acc += F32Lanes::load(&pq) / r2.sqrt();
    }
    acc.sum_f64()
}

/// Guarded f32 analogue of [`p2p_potential_span_guarded`]: pairs at
/// exactly zero (softened) f32 distance contribute nothing and are not
/// counted. Returns the widened potential and the counted pairs. Note
/// the guard tests the *f32* distance, so a pair separated by less than
/// an f32 ULP from the target is skipped where the f64 kernel would keep
/// it — within the roundoff budget that gates this tier.
#[must_use]
pub fn p2p_potential_span_guarded_f32(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    qs: &[f32],
    t: Vec3,
    eps2: f64,
) -> (f64, u64) {
    simd::dispatch(|| p2p_potential_span_guarded_f32_impl::<P2P_LANES_F32>(xs, ys, zs, qs, t, eps2))
}

#[inline(always)]
fn p2p_potential_span_guarded_f32_impl<const L: usize>(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    qs: &[f32],
    t: Vec3,
    eps2: f64,
) -> (f64, u64) {
    debug_assert!(xs.len() == ys.len() && ys.len() == zs.len() && zs.len() == qs.len());
    let (tx, ty, tz, ev) = (t.x as f32, t.y as f32, t.z as f32, eps2 as f32);
    let main = xs.len() - xs.len() % L;
    let mut acc = [0.0f32; L];
    let mut cnt = [0u64; L];
    for (((xc, yc), zc), qc) in xs[..main]
        .chunks_exact(L)
        .zip(ys[..main].chunks_exact(L))
        .zip(zs[..main].chunks_exact(L))
        .zip(qs[..main].chunks_exact(L))
    {
        for l in 0..L {
            let dx = xc[l] - tx;
            let dy = yc[l] - ty;
            let dz = zc[l] - tz;
            let r2 = dx * dx + dy * dy + dz * dz + ev;
            if r2 > 0.0 {
                acc[l] += qc[l] / r2.sqrt();
                cnt[l] += 1;
            }
        }
    }
    let mut phi = 0.0f64;
    let mut pairs = 0u64;
    for l in 0..L {
        phi += f64::from(acc[l]);
        pairs += cnt[l];
    }
    for j in main..xs.len() {
        let dx = xs[j] - tx;
        let dy = ys[j] - ty;
        let dz = zs[j] - tz;
        let r2 = dx * dx + dy * dy + dz * dz + ev;
        if r2 > 0.0 {
            phi += f64::from(qs[j] / r2.sqrt());
            pairs += 1;
        }
    }
    (phi, pairs)
}

/// Guarded f32 analogue of [`p2p_field_span_guarded`]; see
/// [`p2p_potential_span_guarded_f32`] for the guard semantics. Returns
/// `(Φ, ∇Φ, counted pairs)` widened to f64.
#[must_use]
pub fn p2p_field_span_guarded_f32(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    qs: &[f32],
    t: Vec3,
    eps2: f64,
) -> (f64, Vec3, u64) {
    simd::dispatch(|| p2p_field_span_guarded_f32_impl::<P2P_LANES_F32>(xs, ys, zs, qs, t, eps2))
}

#[inline(always)]
fn p2p_field_span_guarded_f32_impl<const L: usize>(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    qs: &[f32],
    t: Vec3,
    eps2: f64,
) -> (f64, Vec3, u64) {
    debug_assert!(xs.len() == ys.len() && ys.len() == zs.len() && zs.len() == qs.len());
    let (tx, ty, tz, ev) = (t.x as f32, t.y as f32, t.z as f32, eps2 as f32);
    let main = xs.len() - xs.len() % L;
    let mut acc_phi = [0.0f32; L];
    let mut acc_gx = [0.0f32; L];
    let mut acc_gy = [0.0f32; L];
    let mut acc_gz = [0.0f32; L];
    let mut cnt = [0u64; L];
    for (((xc, yc), zc), qc) in xs[..main]
        .chunks_exact(L)
        .zip(ys[..main].chunks_exact(L))
        .zip(zs[..main].chunks_exact(L))
        .zip(qs[..main].chunks_exact(L))
    {
        for l in 0..L {
            let dx = tx - xc[l];
            let dy = ty - yc[l];
            let dz = tz - zc[l];
            let r2 = dx * dx + dy * dy + dz * dz + ev;
            if r2 > 0.0 {
                let r = r2.sqrt();
                let f = -qc[l] / (r2 * r);
                acc_phi[l] += qc[l] / r;
                acc_gx[l] += dx * f;
                acc_gy[l] += dy * f;
                acc_gz[l] += dz * f;
                cnt[l] += 1;
            }
        }
    }
    let mut phi = 0.0f64;
    let mut grad = Vec3::ZERO;
    let mut pairs = 0u64;
    for l in 0..L {
        phi += f64::from(acc_phi[l]);
        grad += Vec3::new(
            f64::from(acc_gx[l]),
            f64::from(acc_gy[l]),
            f64::from(acc_gz[l]),
        );
        pairs += cnt[l];
    }
    for j in main..xs.len() {
        let dx = tx - xs[j];
        let dy = ty - ys[j];
        let dz = tz - zs[j];
        let r2 = dx * dx + dy * dy + dz * dz + ev;
        if r2 > 0.0 {
            let r = r2.sqrt();
            let f = -qs[j] / (r2 * r);
            phi += f64::from(qs[j] / r);
            grad += Vec3::new(f64::from(dx * f), f64::from(dy * f), f64::from(dz * f));
            pairs += 1;
        }
    }
    (phi, grad, pairs)
}

/// Lane count for the dense M2L operator kernel at the scalar-fallback
/// dispatch level; the dispatched width follows [`crate::simd::dispatch`].
pub const M2L_LANES: usize = 4;

/// Accumulates one dense real M2L (or L2L) operator application:
/// `y[r] += Σ_c op[c·rows + r] · x[c]` with `op` column-major
/// (`rows = y.len()` rows × `x.len()` columns).
///
/// The compiled FMM stores each translation operator as a real matrix over
/// interleaved `(re, im)` coefficient spans, so the whole downward pass is
/// this one kernel. Columns whose input entry is exactly zero are skipped —
/// bit-exact, since their contribution would be `+0.0` everywhere — which
/// matters for sparse probe columns and zero high-order coefficients.
pub fn m2l_apply(op: &[f64], x: &[f64], y: &mut [f64]) {
    simd::dispatch(|| m2l_apply_impl::<M2L_LANES>(op, x, y));
}

#[inline(always)]
fn m2l_apply_impl<const L: usize>(op: &[f64], x: &[f64], y: &mut [f64]) {
    let rows = y.len();
    let cols = x.len();
    debug_assert_eq!(op.len(), rows * cols);
    let main = rows - rows % L;
    let mut c = 0;
    // Two columns per sweep over `y` halves the store traffic; summation
    // order per output row is by ascending column regardless of `L`.
    while c + 1 < cols {
        let (xa, xb) = (x[c], x[c + 1]);
        // lint: allow(float_cmp, exact-zero column skip: sparsity shortcut, never an equality test)
        if xa == 0.0 && xb == 0.0 {
            c += 2;
            continue;
        }
        let col_a = &op[c * rows..(c + 1) * rows];
        let col_b = &op[(c + 1) * rows..(c + 2) * rows];
        let va = F64Lanes::<L>::splat(xa);
        let vb = F64Lanes::<L>::splat(xb);
        for r in (0..main).step_by(L) {
            let acc = F64Lanes::<L>::load(&y[r..r + L])
                + F64Lanes::<L>::load(&col_a[r..r + L]) * va
                + F64Lanes::<L>::load(&col_b[r..r + L]) * vb;
            acc.store(&mut y[r..r + L]);
        }
        for r in main..rows {
            // Same association as the lane path — `(y + a·xa) + b·xb` — so
            // the result never depends on where the vector body ends.
            y[r] = y[r] + col_a[r] * xa + col_b[r] * xb;
        }
        c += 2;
    }
    if c < cols {
        let xa = x[c];
        // lint: allow(float_cmp, exact-zero column skip: sparsity shortcut, never an equality test)
        if xa != 0.0 {
            let col_a = &op[c * rows..(c + 1) * rows];
            let va = F64Lanes::<L>::splat(xa);
            for r in (0..main).step_by(L) {
                let acc =
                    F64Lanes::<L>::load(&y[r..r + L]) + F64Lanes::<L>::load(&col_a[r..r + L]) * va;
                acc.store(&mut y[r..r + L]);
            }
            for r in main..rows {
                y[r] += col_a[r] * xa;
            }
        }
    }
}

/// Rows per register tile of [`m2l_apply_block`]: 8 lane-vector
/// accumulators, the most the compiler reliably keeps in registers (wider
/// tiles are spilled to memory).
const M2L_TILE_ROWS: usize = 8;

/// Applies one dense operator to many `(target, source)` span pairs:
/// for every `(t, s)` in `pairs`, `y_t += op · x_s`, where `x_s` is span
/// `s` of `x` (`op.len() / rows` entries) and `y_t` is span `t` of `y`
/// (`rows` entries), `op` column-major as in [`m2l_apply`].
///
/// This is the GEMM-shaped form of the compiled FMM's downward pass: one
/// offset class applied to every pair that shares it. Pairs are taken a
/// lane-width group at a time (8 on AVX-512, 4 otherwise); the group's
/// source and target spans are packed lane-major, and a register tile of
/// 8 rows × the group accumulates across all columns, so each operator
/// entry is broadcast once per group instead of streamed once per pair.
///
/// Per output entry the operation sequence is `y + a₀·x₀ + a₁·x₁ + …` in
/// ascending column order — the one [`m2l_apply`] runs — so the result
/// is bit-identical to calling [`m2l_apply`] once per pair, in any order,
/// at every dispatch level (a skipped all-zero column adds only `±0.0`,
/// which leaves every value but `-0.0` unchanged, and an accumulator that
/// starts at `+0.0` never becomes `-0.0`).
///
/// Targets within one call must be distinct.
pub fn m2l_apply_block(op: &[f64], x: &[f64], y: &mut [f64], rows: usize, pairs: &[(u32, u32)]) {
    if rows == 0 || pairs.is_empty() {
        return;
    }
    let cols = op.len() / rows;
    debug_assert_eq!(op.len(), rows * cols);
    let level = simd::level();
    // lint: allow(alloc, one packing buffer per block application, reused across its pair groups)
    let mut pack = vec![0.0f64; (cols + rows) * level.m2p_lanes()];
    // `inline(always)` so the body is compiled inside each dispatch
    // wrapper with that wrapper's instruction set (a closure this large
    // with three callers is otherwise emitted once, at the baseline ISA)
    simd::dispatch(
        #[inline(always)]
        || match level {
            simd::SimdLevel::Avx512 => {
                m2l_apply_block_impl::<8>(op, x, y, (rows, cols), pairs, &mut pack);
            }
            _ => m2l_apply_block_impl::<4>(op, x, y, (rows, cols), pairs, &mut pack),
        },
    );
}

/// Groups of `S` pairs: pack sources to `[col][lane]` and targets to
/// `[row][lane]` (unused lanes zero), run row tiles of 8, then 4, then 1
/// over the packed group, and unpack the targets. A group less than half
/// full (a short tail, or a sparse offset class) runs per pair instead.
#[inline(always)]
fn m2l_apply_block_impl<const S: usize>(
    op: &[f64],
    x: &[f64],
    y: &mut [f64],
    (rows, cols): (usize, usize),
    pairs: &[(u32, u32)],
    pack: &mut [f64],
) {
    let (xt, yt) = pack.split_at_mut(cols * S);
    for group in pairs.chunks(S) {
        if 2 * group.len() < S {
            // mostly padding: one operator pass per pair is cheaper
            for &(t, src) in group {
                let (t, src) = (t as usize, src as usize);
                m2l_apply_impl::<M2L_LANES>(
                    op,
                    &x[src * cols..(src + 1) * cols],
                    &mut y[t * rows..(t + 1) * rows],
                );
            }
            continue;
        }
        for (s, &(t, src)) in group.iter().enumerate() {
            let (t, src) = (t as usize, src as usize);
            for (c, &v) in x[src * cols..(src + 1) * cols].iter().enumerate() {
                xt[c * S + s] = v;
            }
            for (r, &v) in y[t * rows..(t + 1) * rows].iter().enumerate() {
                yt[r * S + s] = v;
            }
        }
        for s in group.len()..S {
            for c in 0..cols {
                xt[c * S + s] = 0.0;
            }
            for r in 0..rows {
                yt[r * S + s] = 0.0;
            }
        }
        let mut r0 = 0;
        while r0 + M2L_TILE_ROWS <= rows {
            m2l_row_tile::<S, M2L_TILE_ROWS>(op, (rows, cols), xt, yt, r0);
            r0 += M2L_TILE_ROWS;
        }
        if r0 + 4 <= rows {
            m2l_row_tile::<S, 4>(op, (rows, cols), xt, yt, r0);
            r0 += 4;
        }
        while r0 < rows {
            m2l_row_tile::<S, 1>(op, (rows, cols), xt, yt, r0);
            r0 += 1;
        }
        for (s, &(t, _)) in group.iter().enumerate() {
            let t = t as usize;
            for (r, v) in y[t * rows..(t + 1) * rows].iter_mut().enumerate() {
                *v = yt[r * S + s];
            }
        }
    }
}

/// One register tile: rows `r0 .. r0 + W` of the `S` packed targets, in
/// `W` lane vectors accumulated across every column.
#[inline(always)]
fn m2l_row_tile<const S: usize, const W: usize>(
    op: &[f64],
    (rows, cols): (usize, usize),
    xt: &[f64],
    yt: &mut [f64],
    r0: usize,
) {
    let mut acc = [F64Lanes::<S>::splat(0.0); W];
    for (r, a) in acc.iter_mut().enumerate() {
        *a = F64Lanes::load(&yt[(r0 + r) * S..]);
    }
    for c in 0..cols {
        let xv = F64Lanes::<S>::load(&xt[c * S..]);
        // lint: allow(float_cmp, exact-zero column skip: sparsity shortcut, never an equality test)
        if xv.0.iter().all(|&v| v == 0.0) {
            continue;
        }
        let col = &op[c * rows + r0..c * rows + r0 + W];
        for (a, &o) in acc.iter_mut().zip(col) {
            *a += F64Lanes::splat(o) * xv;
        }
    }
    for (r, a) in acc.iter().enumerate() {
        a.store(&mut yt[(r0 + r) * S..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expansion::MultipoleExpansion;
    use crate::workspace::Workspace;
    use mbt_geometry::Particle;
    use proptest::prelude::*;

    fn cluster(center: Vec3, radius: f64, n: usize, seed: u64) -> Vec<Particle> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let v = Vec3::new(next() * 2.0 - 1.0, next() * 2.0 - 1.0, next() * 2.0 - 1.0);
                Particle::new(center + v * radius, next() * 2.0 - 1.0)
            })
            .collect()
    }

    /// Four distinct expansions, four distinct points, degrees 0..=12:
    /// every lane of the group kernels must reproduce the scalar kernels
    /// to ULP precision (the algebraic spherical setup differs from the
    /// scalar `acos`/`atan2` path only in final-digit rounding).
    #[test]
    fn group_kernels_match_scalar_per_lane() {
        let centers = [
            Vec3::new(0.2, -0.1, 0.3),
            Vec3::new(-0.4, 0.5, 0.0),
            Vec3::new(0.0, 0.0, -0.6),
            Vec3::new(0.7, 0.7, 0.7),
        ];
        let exps: Vec<MultipoleExpansion> = centers
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                MultipoleExpansion::from_particles(c, 12, &cluster(c, 0.3, 30, i as u64 + 1))
            })
            .collect();
        let points = [
            Vec3::new(2.0, 1.0, -1.0),
            Vec3::new(-1.5, 2.0, 0.5),
            Vec3::new(0.3, -0.2, 3.0),
            Vec3::new(-2.0, -2.0, 1.0),
        ];
        let refs: Vec<_> = exps.iter().map(MultipoleExpansion::as_ref).collect();
        let g = M2pGroup {
            centers,
            points,
            coeffs: [
                refs[0].coeffs,
                refs[1].coeffs,
                refs[2].coeffs,
                refs[3].coeffs,
            ],
        };
        let mut bws = BatchWorkspace::new();
        let mut ws = Workspace::new();
        for degree in [0usize, 1, 2, 5, 12] {
            bws.prepare_degree(degree);
            let pot = m2p_potential_group(&g, &mut bws);
            let (fphi, fgrad) = m2p_field_group(&g, &mut bws);
            for l in 0..M2P_LANES {
                let close = |a: f64, b: f64| (a - b).abs() <= 1e-13 * b.abs().max(1e-300);
                let want = refs[l].potential_at_degree_with(points[l], degree, &mut ws);
                assert!(
                    close(pot[l], want),
                    "potential lane {l} degree {degree}: {} vs {want}",
                    pot[l]
                );
                let (wphi, wgrad) = refs[l].field_at_degree_with(points[l], degree, &mut ws);
                assert!(
                    close(fphi[l], wphi),
                    "field potential lane {l} degree {degree}: {} vs {wphi}",
                    fphi[l]
                );
                assert!(
                    fgrad[l].distance(wgrad) <= 1e-13 * wgrad.norm().max(1e-300),
                    "gradient lane {l} degree {degree}: {:?} vs {wgrad:?}",
                    fgrad[l]
                );
            }
        }
    }

    /// The same tasks evaluated in a 4-wide and an 8-wide group produce
    /// bit-identical outputs: lanes are independent and the per-lane
    /// operation sequence does not depend on `L`, so runtime width
    /// dispatch can never change results.
    #[test]
    fn lane_width_does_not_change_values() {
        let centers4 = [
            Vec3::new(0.2, -0.1, 0.3),
            Vec3::new(-0.4, 0.5, 0.0),
            Vec3::new(0.0, 0.0, -0.6),
            Vec3::new(0.7, 0.7, 0.7),
        ];
        let exps: Vec<MultipoleExpansion> = centers4
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                MultipoleExpansion::from_particles(c, 9, &cluster(c, 0.3, 25, i as u64 + 41))
            })
            .collect();
        let points4 = [
            Vec3::new(2.0, 1.0, -1.0),
            Vec3::new(-1.5, 2.0, 0.5),
            Vec3::new(0.3, -0.2, 3.0),
            Vec3::new(-2.0, -2.0, 1.0),
        ];
        let refs: Vec<_> = exps.iter().map(MultipoleExpansion::as_ref).collect();
        let g4 = M2pGroup::<4> {
            centers: centers4,
            points: points4,
            coeffs: std::array::from_fn(|l| refs[l].coeffs),
        };
        // 8-wide group holding the same four tasks twice over
        let g8 = M2pGroup::<8> {
            centers: std::array::from_fn(|l| centers4[l % 4]),
            points: std::array::from_fn(|l| points4[l % 4]),
            coeffs: std::array::from_fn(|l| refs[l % 4].coeffs),
        };
        let mut bws = BatchWorkspace::new();
        for degree in [0usize, 3, 9] {
            bws.prepare_degree_lanes(degree, 8);
            let pot4 = m2p_potential_group(&g4, &mut bws);
            let pot8 = m2p_potential_group(&g8, &mut bws);
            let (fphi4, fgrad4) = m2p_field_group(&g4, &mut bws);
            let (fphi8, fgrad8) = m2p_field_group(&g8, &mut bws);
            for l in 0..8 {
                assert_eq!(pot8[l], pot4[l % 4], "potential width mismatch lane {l}");
                assert_eq!(fphi8[l], fphi4[l % 4], "field phi width mismatch lane {l}");
                assert_eq!(fgrad8[l], fgrad4[l % 4], "gradient width mismatch lane {l}");
            }
        }
    }

    /// The broadcast (uniform-node) kernels are pure codegen relative to
    /// the general gather kernels: for a group whose lanes all reference
    /// one expansion, every lane of the uniform kernel must bit-equal the
    /// gather kernel — including padded groups where the tail lanes
    /// replicate the last real task.
    #[test]
    fn uniform_group_matches_gather_group() {
        let center = Vec3::new(0.15, -0.25, 0.4);
        let e = MultipoleExpansion::from_particles(center, 10, &cluster(center, 0.3, 40, 77));
        let r = e.as_ref();
        let distinct = [
            Vec3::new(2.0, 1.0, -1.0),
            Vec3::new(-1.5, 2.0, 0.5),
            Vec3::new(0.3, -0.2, 3.0),
            Vec3::new(-2.0, -2.0, 1.0),
            Vec3::new(1.1, -2.4, 0.9),
            Vec3::new(-0.8, 1.7, -2.2),
            Vec3::new(2.6, 0.4, 1.3),
            Vec3::new(-1.9, -0.6, 2.8),
        ];
        let mut bws = BatchWorkspace::new();
        for take in [1usize, 3, 8] {
            // Padded group: lanes past `take` repeat the last real point,
            // exactly as the executor pads a short same-node run.
            let points: [Vec3; 8] = std::array::from_fn(|l| distinct[l.min(take - 1)]);
            let g = M2pGroup::<8> {
                centers: [center; 8],
                points,
                coeffs: [r.coeffs; 8],
            };
            for degree in [0usize, 4, 10] {
                bws.prepare_degree_lanes(degree, 8);
                let pot_g = m2p_potential_group(&g, &mut bws);
                let pot_u = m2p_potential_group_uniform::<8>(center, r.coeffs, &points, &mut bws);
                let (fphi_g, fgrad_g) = m2p_field_group(&g, &mut bws);
                let (fphi_u, fgrad_u) =
                    m2p_field_group_uniform::<8>(center, r.coeffs, &points, &mut bws);
                for l in 0..8 {
                    assert_eq!(
                        pot_g[l].to_bits(),
                        pot_u[l].to_bits(),
                        "potential lane {l} take {take} degree {degree}"
                    );
                    assert_eq!(
                        fphi_g[l].to_bits(),
                        fphi_u[l].to_bits(),
                        "field phi lane {l} take {take} degree {degree}"
                    );
                    for (a, b) in [
                        (fgrad_g[l].x, fgrad_u[l].x),
                        (fgrad_g[l].y, fgrad_u[l].y),
                        (fgrad_g[l].z, fgrad_u[l].z),
                    ] {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "gradient lane {l} take {take} degree {degree}"
                        );
                    }
                }
            }
        }
    }

    /// Padded groups (one task replicated into every lane) are the
    /// remainder-handling pattern; each lane must still be exact.
    #[test]
    fn replicated_lanes_are_independent() {
        let c = Vec3::new(0.1, 0.2, 0.3);
        let e = MultipoleExpansion::from_particles(c, 6, &cluster(c, 0.2, 20, 9));
        let r = e.as_ref();
        let pt = Vec3::new(1.5, -2.0, 0.7);
        let g = M2pGroup {
            centers: [c; M2P_LANES],
            points: [pt; M2P_LANES],
            coeffs: [r.coeffs; M2P_LANES],
        };
        let mut bws = BatchWorkspace::new();
        bws.prepare_degree(6);
        let pot = m2p_potential_group(&g, &mut bws);
        let mut ws = Workspace::new();
        let want = r.potential_at_degree_with(pt, 6, &mut ws);
        for l in 0..M2P_LANES {
            // replicated lanes are identical to each other bit for bit,
            // and ULP-close to the scalar kernel
            assert_eq!(pot[l], pot[0], "replicated lane {l} diverged");
            assert!(
                (pot[l] - want).abs() <= 1e-13 * want.abs().max(1e-300),
                "replicated lane {l}: {} vs {want}",
                pot[l]
            );
        }
    }

    proptest! {
        /// The degree-bucket executor pads short groups by replicating a
        /// live lane; whatever occupies the tail lanes, the live lanes'
        /// outputs must be bit-identical to a fully-live group's.
        #[test]
        fn padded_tail_lanes_never_contribute(
            take in 1usize..8,
            degree in 0usize..7,
            pad_seed in 0u64..64,
        ) {
            let centers: [Vec3; 8] = std::array::from_fn(|l| {
                Vec3::new(0.1 * l as f64, -0.2 + 0.05 * l as f64, 0.3)
            });
            let exps: Vec<MultipoleExpansion> = centers
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    MultipoleExpansion::from_particles(c, 7, &cluster(c, 0.25, 16, i as u64 + 7))
                })
                .collect();
            let pad_e = MultipoleExpansion::from_particles(
                Vec3::new(-0.9, 0.4, 0.1),
                7,
                &cluster(Vec3::new(-0.9, 0.4, 0.1), 0.2, 12, 1000 + pad_seed),
            );
            let points: [Vec3; 8] = std::array::from_fn(|l| {
                Vec3::new(1.8 + 0.3 * l as f64, -1.0, 2.0 - 0.2 * l as f64)
            });
            let pad_pt = Vec3::new(-3.0, 2.0 + pad_seed as f64 * 0.1, 1.5);
            let refs: Vec<_> = exps.iter().map(MultipoleExpansion::as_ref).collect();
            let pad_r = pad_e.as_ref();
            // fully live group vs. the same group with lanes take..8
            // replaced by unrelated padding tasks
            let g_full = M2pGroup::<8> {
                centers,
                points,
                coeffs: std::array::from_fn(|l| refs[l].coeffs),
            };
            let g_padded = M2pGroup::<8> {
                centers: std::array::from_fn(|l| if l < take { centers[l] } else { pad_r.center }),
                points: std::array::from_fn(|l| if l < take { points[l] } else { pad_pt }),
                coeffs: std::array::from_fn(|l| if l < take { refs[l].coeffs } else { pad_r.coeffs }),
            };
            let mut bws = BatchWorkspace::new();
            bws.prepare_degree_lanes(degree, 8);
            let full = m2p_potential_group(&g_full, &mut bws);
            let padded = m2p_potential_group(&g_padded, &mut bws);
            let (ffull, gfull) = m2p_field_group(&g_full, &mut bws);
            let (fpad, gpad) = m2p_field_group(&g_padded, &mut bws);
            for l in 0..take {
                prop_assert_eq!(padded[l], full[l], "live lane {} perturbed by padding", l);
                prop_assert_eq!(fpad[l], ffull[l], "live field lane {} perturbed", l);
                prop_assert_eq!(gpad[l], gfull[l], "live gradient lane {} perturbed", l);
            }
        }
    }

    fn soa_of(ps: &[Particle]) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        (
            ps.iter().map(|p| p.position.x).collect(),
            ps.iter().map(|p| p.position.y).collect(),
            ps.iter().map(|p| p.position.z).collect(),
            ps.iter().map(|p| p.charge).collect(),
        )
    }

    fn soa32_of(ps: &[Particle]) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        (
            ps.iter().map(|p| p.position.x as f32).collect(),
            ps.iter().map(|p| p.position.y as f32).collect(),
            ps.iter().map(|p| p.position.z as f32).collect(),
            ps.iter().map(|p| p.charge as f32).collect(),
        )
    }

    #[test]
    fn p2p_span_matches_scalar_loop() {
        // span lengths straddling the widest lane count, with and
        // without guard
        for n in [0usize, 1, 3, 4, 5, 8, 13, 17] {
            let ps = cluster(Vec3::ZERO, 1.0, n, 7 + n as u64);
            let (xs, ys, zs, qs) = soa_of(&ps);
            let t = Vec3::new(0.3, -0.8, 0.2);
            for eps2 in [0.0, 1e-4] {
                let want: f64 = ps
                    .iter()
                    .map(|p| p.charge / (p.position.distance_sq(t) + eps2).sqrt())
                    .sum();
                let got = p2p_potential_span(&xs, &ys, &zs, &qs, t, eps2);
                assert!(
                    (got - want).abs() <= 1e-14 * want.abs().max(1.0),
                    "n={n} eps2={eps2}: {got} vs {want}"
                );
                let (gphi, gpairs) = p2p_potential_span_guarded(&xs, &ys, &zs, &qs, t, eps2);
                assert!((gphi - want).abs() <= 1e-14 * want.abs().max(1.0));
                assert_eq!(gpairs, n as u64);
            }
        }
    }

    #[test]
    fn p2p_guard_skips_coincident_source() {
        let ps = [
            Particle::new(Vec3::ZERO, 2.0),
            Particle::new(Vec3::X, 1.0),
            Particle::new(Vec3::new(0.0, 2.0, 0.0), -1.0),
        ];
        let (xs, ys, zs, qs) = soa_of(&ps);
        let (phi, pairs) = p2p_potential_span_guarded(&xs, &ys, &zs, &qs, Vec3::ZERO, 0.0);
        assert_eq!(pairs, 2);
        assert!((phi - (1.0 - 0.5)).abs() < 1e-15);
        let (fphi, fgrad, fpairs) = p2p_field_span_guarded(&xs, &ys, &zs, &qs, Vec3::ZERO, 0.0);
        assert_eq!(fpairs, 2);
        assert!((fphi - 0.5).abs() < 1e-15);
        assert!(fgrad.is_finite());
        // f32 guard: same skip semantics at f32 resolution
        let (x3, y3, z3, q3) = soa32_of(&ps);
        let (phi32, pairs32) = p2p_potential_span_guarded_f32(&x3, &y3, &z3, &q3, Vec3::ZERO, 0.0);
        assert_eq!(pairs32, 2);
        assert!((phi32 - 0.5).abs() < 1e-6);
        let (f3, g3, c3) = p2p_field_span_guarded_f32(&x3, &y3, &z3, &q3, Vec3::ZERO, 0.0);
        assert_eq!(c3, 2);
        assert!((f3 - 0.5).abs() < 1e-6);
        assert!(g3.is_finite());
    }

    #[test]
    fn p2p_field_matches_scalar_loop() {
        for n in [1usize, 4, 6, 11] {
            let ps = cluster(Vec3::new(0.2, 0.1, -0.3), 0.8, n, 100 + n as u64);
            let (xs, ys, zs, qs) = soa_of(&ps);
            let t = Vec3::new(-0.4, 0.9, 0.1);
            let eps2 = 1e-6;
            let mut wphi = 0.0;
            let mut wgrad = Vec3::ZERO;
            for p in &ps {
                let d = t - p.position;
                let r2 = d.norm_sq() + eps2;
                let r = r2.sqrt();
                wphi += p.charge / r;
                wgrad += d * (-p.charge / (r2 * r));
            }
            let (phi, grad, pairs) = p2p_field_span_guarded(&xs, &ys, &zs, &qs, t, eps2);
            assert_eq!(pairs, n as u64);
            assert!((phi - wphi).abs() <= 1e-13 * wphi.abs().max(1.0));
            assert!(grad.distance(wgrad) <= 1e-13 * wgrad.norm().max(1.0));
        }
    }

    /// The f32 span kernels track the f64 reference within single-
    /// precision roundoff: a handful of ULPs per pair, far inside the
    /// `ε32·pairs` budget that gates the tier.
    #[test]
    fn p2p_f32_spans_track_f64_within_roundoff() {
        for n in [0usize, 1, 7, 16, 19, 33] {
            let ps = cluster(Vec3::ZERO, 1.0, n, 500 + n as u64);
            let (xs, ys, zs, qs) = soa_of(&ps);
            let (x3, y3, z3, q3) = soa32_of(&ps);
            let t = Vec3::new(0.4, -0.7, 0.25);
            for eps2 in [0.0, 1e-4] {
                let want = p2p_potential_span(&xs, &ys, &zs, &qs, t, eps2);
                let tol = 1e-5 * want.abs().max(1.0) * (n.max(1) as f64);
                let got = p2p_potential_span_f32(&x3, &y3, &z3, &q3, t, eps2);
                assert!(
                    (got - want).abs() <= tol,
                    "unguarded n={n} eps2={eps2}: {got} vs {want}"
                );
                let (gphi, gpairs) = p2p_potential_span_guarded_f32(&x3, &y3, &z3, &q3, t, eps2);
                assert!((gphi - want).abs() <= tol);
                assert_eq!(gpairs, n as u64);
            }
            let (wphi, wgrad, _) = p2p_field_span_guarded(&xs, &ys, &zs, &qs, t, 1e-6);
            let (fphi, fgrad, fpairs) = p2p_field_span_guarded_f32(&x3, &y3, &z3, &q3, t, 1e-6);
            assert_eq!(fpairs, n as u64);
            let tol = 1e-4 * (n.max(1) as f64);
            assert!((fphi - wphi).abs() <= tol * wphi.abs().max(1.0));
            assert!(fgrad.distance(wgrad) <= tol * wgrad.norm().max(1.0));
        }
    }

    /// The dense operator kernel matches a plain per-row accumulation with
    /// the same per-row association, including ragged shapes, odd column
    /// counts, and exact-zero input entries.
    #[test]
    fn m2l_apply_matches_naive_accumulation() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        for (rows, cols) in [
            (1usize, 1usize),
            (3, 2),
            (7, 5),
            (16, 16),
            (30, 13),
            (31, 4),
        ] {
            let op: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
            let mut x: Vec<f64> = (0..cols).map(|_| next()).collect();
            if cols > 2 {
                x[1] = 0.0; // exercise the zero-column skip
                x[cols - 1] = 0.0;
            }
            let mut y: Vec<f64> = (0..rows).map(|_| next()).collect();
            let mut want = y.clone();
            for r in 0..rows {
                for c in 0..cols {
                    want[r] += op[c * rows + r] * x[c];
                }
            }
            m2l_apply(&op, &x, &mut y);
            for r in 0..rows {
                assert!(
                    (y[r] - want[r]).abs() <= 1e-14 * want[r].abs().max(1.0),
                    "rows={rows} cols={cols} r={r}: {} vs {}",
                    y[r],
                    want[r]
                );
            }
        }
    }

    /// The blocked kernel reproduces one `m2l_apply` per pair bit for bit
    /// at every degree's operator shape (`2T` rows: not generally a
    /// multiple of the lane or tile width), for every group width up to
    /// two full tiles plus a tail, with zero source entries and zero
    /// target accumulators in the mix.
    #[test]
    fn m2l_apply_block_matches_per_pair_bitwise() {
        let mut state = 0x0f1e_2d3c_4b5a_6978u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        for p in 1..=10usize {
            let n = 2 * tri_len(p);
            let op: Vec<f64> = (0..n * n).map(|_| next()).collect();
            for width in 1..=9usize {
                let spans = width + 3;
                let mut x: Vec<f64> = (0..spans * n).map(|_| next()).collect();
                // source 1 is all zero; others lose scattered entries, and
                // column pair 2/3 is zero across every source
                for (i, v) in x.iter_mut().enumerate() {
                    let (span, col) = (i / n, i % n);
                    if span == 1 || (i % 7 == 3) || (col / 2 == 1 && n > 4) {
                        *v = 0.0;
                    }
                }
                let mut y0: Vec<f64> = (0..spans * n).map(|_| next()).collect();
                // target 0 accumulates from +0.0
                y0[..n].fill(0.0);
                // distinct targets, sources in a scrambled order (repeats allowed)
                let pairs: Vec<(u32, u32)> = (0..width)
                    .map(|k| (k as u32, ((k * 5 + 2) % spans) as u32))
                    .collect();
                let mut want = y0.clone();
                for &(t, s) in &pairs {
                    let (t, s) = (t as usize, s as usize);
                    m2l_apply(&op, &x[s * n..(s + 1) * n], &mut want[t * n..(t + 1) * n]);
                }
                let mut got = y0.clone();
                m2l_apply_block(&op, &x, &mut got, n, &pairs);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "p={p} width={width} entry {i}: {g} vs {w}"
                    );
                }
            }
        }
    }

    /// Rectangular operators (the L2L shape, `2T_child × 2T_parent`) take
    /// the same path.
    #[test]
    fn m2l_apply_block_handles_rectangular_operators() {
        let (rows, cols) = (2 * tri_len(4), 2 * tri_len(6));
        let op: Vec<f64> = (0..rows * cols).map(|i| (i as f64 * 0.37).sin()).collect();
        let x: Vec<f64> = (0..3 * cols).map(|i| (i as f64 * 0.11).cos()).collect();
        let pairs = [(2u32, 0u32), (0, 2), (1, 1)];
        let mut want = vec![0.0f64; 3 * rows];
        for &(t, s) in &pairs {
            let (t, s) = (t as usize, s as usize);
            m2l_apply(
                &op,
                &x[s * cols..(s + 1) * cols],
                &mut want[t * rows..(t + 1) * rows],
            );
        }
        let mut got = vec![0.0f64; 3 * rows];
        m2l_apply_block(&op, &x, &mut got, rows, &pairs);
        assert_eq!(got, want);
    }
}
