//! Unit-edge translation operators, shared by every compiled plan of one
//! expansion degree.
//!
//! Laplace M2L from a source multipole `M_n` to a target local `L_j` is
//! homogeneous of degree `−(j+n+1)` in the cell edge `e`, and L2L from a
//! parent local `L_n` to a child local `L_j` is homogeneous of degree
//! `n − j`. The compiled FMM therefore stores its coefficients in a scaled
//! basis — `M̃_n = M_n·e⁻ⁿ`, `L̃_j = L_j·e^{j+1}` — in which every level's
//! M2L operators are the ones probed at `e = 1`, and every L2L operator is
//! the unit one with its parent-degree-`n` columns scaled by `2^{−(n+1)}`
//! (exact in binary). So one [`OperatorTable`] per degree serves every
//! level of every plan.
//!
//! Tables are handed out through a process-wide registry of weak
//! references: concurrent builders of one degree share one table (and
//! probe it once), and dropping the last plan of a degree frees its
//! operators — a one-off high-degree query does not pin them.

use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

use mbt_geometry::Vec3;
use mbt_multipole::tables::tri_index;
use mbt_multipole::{tri_len, Complex, ExpansionRef, LocalExpansion, MAX_DEGREE};
use rayon::prelude::*;

/// Number of distinct geometric M2L offset classes (`Δ ∈ [-3,3]³` with
/// Chebyshev norm ≥ 2).
pub(crate) const M2L_OFFSET_CLASSES: usize = 316;

/// Offset tables shared by every level and degree: the dense offset list
/// and, per target parity class (`x&1 | y&1<<1 | z&1<<2`, which is also
/// the cell's Morton octant `code & 7`), the subset of offsets its
/// interaction list can reach.
pub(crate) struct OffsetTables {
    /// All reachable offsets, in a fixed order (= operator order).
    pub offsets: Vec<(i32, i32, i32)>,
    /// Per parity class: `(dx, dy, dz, operator index)`.
    pub by_parity: Vec<Vec<(i32, i32, i32, u16)>>,
}

/// The process-wide offset tables, built on first use.
pub(crate) fn offset_tables() -> &'static OffsetTables {
    static TABLES: OnceLock<OffsetTables> = OnceLock::new();
    TABLES.get_or_init(build_offset_tables)
}

fn build_offset_tables() -> OffsetTables {
    let mut offsets = Vec::with_capacity(M2L_OFFSET_CLASSES);
    for dz in -3i32..=3 {
        for dy in -3i32..=3 {
            for dx in -3i32..=3 {
                if dx.abs().max(dy.abs()).max(dz.abs()) >= 2 {
                    offsets.push((dx, dy, dz));
                }
            }
        }
    }
    debug_assert_eq!(offsets.len(), M2L_OFFSET_CLASSES);
    let index_of = |d: (i32, i32, i32)| -> u16 {
        offsets
            .iter()
            .position(|&o| o == d)
            // lint: allow(panic, the 7-cube scan above inserted every reachable offset)
            .expect("offset in table") as u16
    };
    let mut by_parity: Vec<Vec<(i32, i32, i32, u16)>> = vec![Vec::new(); 8];
    for (parity, list) in by_parity.iter_mut().enumerate() {
        let b = (
            (parity & 1) as i32,
            ((parity >> 1) & 1) as i32,
            ((parity >> 2) & 1) as i32,
        );
        // children of the target's parent's neighbours: Δ = 2d + o − b
        for dz in -1i32..=1 {
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    for oz in 0..2i32 {
                        for oy in 0..2i32 {
                            for ox in 0..2i32 {
                                let d = (2 * dx + ox - b.0, 2 * dy + oy - b.1, 2 * dz + oz - b.2);
                                if d.0.abs().max(d.1.abs()).max(d.2.abs()) <= 1 {
                                    continue; // adjacent: near field
                                }
                                list.push((d.0, d.1, d.2, index_of(d)));
                            }
                        }
                    }
                }
            }
        }
    }
    OffsetTables { offsets, by_parity }
}

/// The unit-edge M2L and L2L operators of one expansion degree `p`, each
/// a dense real matrix over interleaved `(re, im)` triangular spans
/// (column-major), probed on first use.
pub struct OperatorTable {
    degree: usize,
    /// The [`M2L_OFFSET_CLASSES`] M2L operators (`2T × 2T` each),
    /// concatenated in offset-table order.
    m2l: OnceLock<Vec<f64>>,
    /// Per parent degree `p_par`: the 8 child-octant L2L operators
    /// (`2T × 2T_par` each, octant order), columns pre-scaled by
    /// `2^{−(n+1)}`.
    l2l: [OnceLock<Vec<f64>>; MAX_DEGREE + 1],
}

/// Per degree: the live table, if any plan still holds it.
static REGISTRY: Mutex<[Weak<OperatorTable>; MAX_DEGREE + 1]> =
    Mutex::new([const { Weak::new() }; MAX_DEGREE + 1]);

/// Per degree: how many times an M2L operator set has been probed.
#[cfg(test)]
static M2L_PROBES: [std::sync::atomic::AtomicU64; MAX_DEGREE + 1] =
    [const { std::sync::atomic::AtomicU64::new(0) }; MAX_DEGREE + 1];

impl OperatorTable {
    /// The shared table of degree `p` (`p ≤ MAX_DEGREE`): the live one if
    /// any plan holds it, otherwise a fresh, still unprobed one.
    #[must_use]
    pub fn for_degree(p: usize) -> Arc<OperatorTable> {
        let mut registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(live) = registry[p].upgrade() {
            return live;
        }
        let table = Arc::new(OperatorTable {
            degree: p,
            m2l: OnceLock::new(),
            l2l: [const { OnceLock::new() }; MAX_DEGREE + 1],
        });
        registry[p] = Arc::downgrade(&table);
        table
    }

    /// Heap bytes of the live table of degree `p` (zero once every plan
    /// holding it has been dropped).
    #[cfg(test)]
    pub(crate) fn live_bytes(p: usize) -> usize {
        let registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        registry[p].upgrade().map_or(0, |t| t.heap_bytes())
    }

    /// Heap bytes of the operators probed so far.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let l2l: usize = self
            .l2l
            .iter()
            .filter_map(OnceLock::get)
            .map(|ops| ops.len() * 8)
            .sum();
        std::mem::size_of::<Self>() + self.m2l.get().map_or(0, |ops| ops.len() * 8) + l2l
    }

    /// All M2L operators, `(2T)²` apart in offset-table order; probed
    /// (in parallel) by the first caller, whom concurrent callers wait on.
    pub(crate) fn m2l(&self) -> &[f64] {
        self.m2l.get_or_init(|| {
            #[cfg(test)]
            // ordering: Relaxed — a test-only tally read after the probing threads are joined
            M2L_PROBES[self.degree].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let p = self.degree;
            let t = tri_len(p);
            let stride = (2 * t) * (2 * t);
            let offsets = &offset_tables().offsets;
            let mut ops = vec![0.0f64; M2L_OFFSET_CLASSES * stride];
            ops.par_chunks_mut(stride)
                .enumerate()
                .for_each(|(oi, mat)| {
                    let (dx, dy, dz) = offsets[oi];
                    let d = Vec3::new(f64::from(dx), f64::from(dy), f64::from(dz));
                    probe_m2l(mat, d, p, t);
                });
            ops
        })
    }

    /// The 8 L2L operators from a parent of degree `p_par`, `2T × 2T_par`
    /// apart in octant order.
    pub(crate) fn l2l(&self, p_par: usize) -> &[f64] {
        self.l2l[p_par].get_or_init(|| {
            let (p, t, t_par) = (self.degree, tri_len(self.degree), tri_len(p_par));
            let stride = (2 * t) * (2 * t_par);
            let mut ops = vec![0.0f64; 8 * stride];
            for (octant, mat) in ops.chunks_mut(stride).enumerate() {
                let (bx, by, bz) = mbt_geometry::morton::decode(octant as u64);
                let delta = Vec3::new(
                    f64::from(bx) - 0.5,
                    f64::from(by) - 0.5,
                    f64::from(bz) - 0.5,
                );
                probe_l2l(mat, delta, p_par, p, t_par, t);
                // column pair of parent coefficient (n, m) scaled by
                // 2^{−(n+1)}: the parent edge is twice the child's
                for n in 0..=p_par {
                    let scale = 0.5f64.powi(n as i32 + 1);
                    for m in 0..=n {
                        let c0 = 2 * tri_index(n, m);
                        for v in &mut mat[c0 * 2 * t..(c0 + 2) * 2 * t] {
                            *v *= scale;
                        }
                    }
                }
            }
            ops
        })
    }
}

impl std::fmt::Debug for OperatorTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OperatorTable")
            .field("degree", &self.degree)
            .field("heap_bytes", &self.heap_bytes())
            .finish_non_exhaustive()
    }
}

/// How many M2L operator sets of degree `p` have been probed so far.
#[cfg(test)]
pub(crate) fn m2l_probes(p: usize) -> u64 {
    // ordering: Relaxed — read after the probing threads are joined
    M2L_PROBES[p].load(std::sync::atomic::Ordering::Relaxed)
}

/// Probes one M2L operator: the real-linear map from a source multipole's
/// stored `m ≥ 0` span to the target local's span, for source center
/// `d_vec` relative to the target. Column-major `2T × 2T`.
///
/// Probing each basis coefficient (`1`, then `i`) through the public
/// translation captures the full real-linear operator on the stored
/// triangular representation, including the implicit conjugate mirrors.
pub(crate) fn probe_m2l(mat: &mut [f64], d_vec: Vec3, p: usize, t: usize) {
    let mut probe = vec![Complex::ZERO; t];
    for k in 0..t {
        for (part, unit) in [Complex::ONE, Complex::I].into_iter().enumerate() {
            probe[k] = unit;
            let local = ExpansionRef::new(d_vec, p, &probe).to_local(Vec3::ZERO, p);
            let col = 2 * k + part;
            let mut r = 0usize;
            for j in 0..=p {
                for kk in 0..=j {
                    debug_assert_eq!(r, tri_index(j, kk));
                    let c = local.coeff(j, kk as i64);
                    mat[col * 2 * t + 2 * r] = c.re;
                    mat[col * 2 * t + 2 * r + 1] = c.im;
                    r += 1;
                }
            }
        }
        probe[k] = Complex::ZERO;
    }
}

/// Probes one L2L operator: parent local (degree `p_par`) at the origin to
/// a child local (degree `p`) centered at `delta`. Column-major
/// `2T × 2T_par`.
pub(crate) fn probe_l2l(
    mat: &mut [f64],
    delta: Vec3,
    p_par: usize,
    p: usize,
    t_par: usize,
    t: usize,
) {
    let mut probe = vec![Complex::ZERO; t_par];
    for k in 0..t_par {
        for (part, unit) in [Complex::ONE, Complex::I].into_iter().enumerate() {
            probe[k] = unit;
            let child = LocalExpansion::from_coeffs(Vec3::ZERO, p_par, &probe).translated(delta, p);
            let col = 2 * k + part;
            let mut r = 0usize;
            for j in 0..=p {
                for kk in 0..=j {
                    let c = child.coeff(j, kk as i64);
                    mat[col * 2 * t + 2 * r] = c.re;
                    mat[col * 2 * t + 2 * r + 1] = c.im;
                    r += 1;
                }
            }
        }
        probe[k] = Complex::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Column-normwise agreement of two `2T × cols` column-major matrices.
    /// Compared in the unit basis: in the edge-`e` basis a column's norm
    /// is dominated by its lowest-degree rows, and roundoff-level entries
    /// of the higher rows can exceed 1e-13 of it at e = 1e3.
    fn assert_columns_close(got: &[f64], want: &[f64], rows: usize, what: &str) {
        for (c, (g, w)) in got.chunks(rows).zip(want.chunks(rows)).enumerate() {
            let norm = w.iter().map(|v| v * v).sum::<f64>().sqrt();
            for (r, (a, b)) in g.iter().zip(w).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-13 * norm,
                    "{what}: column {c} row {r}: {a} vs {b} (column norm {norm})"
                );
            }
        }
    }

    /// `(j, n)` of each interleaved row/column index of a degree-`p` span.
    fn span_degrees(p: usize) -> Vec<usize> {
        (0..=p)
            .flat_map(|j| std::iter::repeat_n(j, 2 * (j + 1)))
            .collect()
    }

    #[test]
    fn scaled_unit_operators_match_direct_probes() {
        let offsets = &offset_tables().offsets;
        for p in [3usize, 6, 8] {
            let table = OperatorTable::for_degree(p);
            let t = tri_len(p);
            let stride = 4 * t * t;
            let deg = span_degrees(p);
            for edge in [1e-3, 0.37, 1.0, 1e3] {
                // a spread of offset classes: near, far, and every parity
                for oi in (0..M2L_OFFSET_CLASSES).step_by(23) {
                    let (dx, dy, dz) = offsets[oi];
                    let mut want = vec![0.0f64; stride];
                    let d = Vec3::new(f64::from(dx), f64::from(dy), f64::from(dz)) * edge;
                    probe_m2l(&mut want, d, p, t);
                    let unit = &table.m2l()[oi * stride..(oi + 1) * stride];
                    // A_e = A₁ · e^{−(j+n+1)}: map the direct probe into
                    // the unit basis the arenas compute in
                    let want: Vec<f64> = want
                        .iter()
                        .enumerate()
                        .map(|(i, &a)| {
                            let (j, n) = (deg[i % (2 * t)], deg[i / (2 * t)]);
                            a * edge.powi((j + n + 1) as i32)
                        })
                        .collect();
                    let what = format!("M2L p={p} e={edge} Δ={:?}", offsets[oi]);
                    assert_columns_close(unit, &want, 2 * t, &what);
                }
                for p_par in [p, p + 1] {
                    let t_par = tri_len(p_par);
                    let deg_par = span_degrees(p_par);
                    let stride = 4 * t * t_par;
                    for octant in [0u64, 5, 7] {
                        let (bx, by, bz) = mbt_geometry::morton::decode(octant);
                        let delta = Vec3::new(
                            f64::from(bx) - 0.5,
                            f64::from(by) - 0.5,
                            f64::from(bz) - 0.5,
                        ) * edge;
                        let mut want = vec![0.0f64; stride];
                        probe_l2l(&mut want, delta, p_par, p, t_par, t);
                        let o = octant as usize;
                        let unit = &table.l2l(p_par)[o * stride..(o + 1) * stride];
                        // B_e = B₁ · e^{n−j}, and the table holds
                        // B₁ · 2^{−(n+1)}
                        let want: Vec<f64> = want
                            .iter()
                            .enumerate()
                            .map(|(i, &b)| {
                                let (j, n) = (deg[i % (2 * t)], deg_par[i / (2 * t)]);
                                b * edge.powi(j as i32 - n as i32) * 0.5f64.powi(n as i32 + 1)
                            })
                            .collect();
                        let what = format!("L2L {p_par}→{p} e={edge} octant {octant}");
                        assert_columns_close(unit, &want, 2 * t, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn offset_tables_cover_every_class_once_per_parity() {
        let tables = offset_tables();
        assert_eq!(tables.offsets.len(), M2L_OFFSET_CLASSES);
        for list in &tables.by_parity {
            assert_eq!(list.len(), 189); // 6³ candidates minus the 3³ adjacent
            let mut ops: Vec<u16> = list.iter().map(|e| e.3).collect();
            ops.sort_unstable();
            ops.dedup();
            assert_eq!(ops.len(), list.len());
        }
    }
}
