//! Seeded workload inputs. Everything the program under test receives —
//! particles, target points, the request schedule, the BEM mesh — is
//! generated here from the `--seed` argument, so one seed always gives
//! the same inputs and another seed runs the same workload on new ones.

use mbt_bem::{shapes, TriMesh};
use mbt_geometry::distribution::{plummer, uniform_cube, ChargeModel};
use mbt_geometry::{Particle, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Particles per serve_hot dataset.
pub const SERVE_N: usize = 40_000;
/// Targets per serve_hot request: two evaluation chunks of the engine's
/// default width (64), so each sweep keeps both rayon workers busy.
pub const SERVE_TARGETS: usize = 128;
/// Requests in one client's schedule (a multiple of 3 datasets × 4 kinds).
pub const SCHEDULE_LEN: usize = 96;
/// Particles per matvec_cold dataset version.
pub const MATVEC_N: usize = 100_000;
/// Targets of each matvec_cold answer checked against direct summation.
pub const MATVEC_CHECKED: usize = 1024;

/// An independent stream for one purpose of one seed.
fn stream(seed: u64, purpose: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// A uniform cube of positive charges in `[0.5, 1.5]`. Positive charges
/// keep each answer's relative error a property of the method rather
/// than of how much a seed's random signs happen to cancel.
pub fn cube(n: usize, seed: u64) -> Vec<Particle> {
    uniform_cube(n, 1.0, ChargeModel::Uniform { lo: 0.5, hi: 1.5 }, seed)
}

/// Which serve_hot dataset a request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSet {
    /// Uniform cube, one plan.
    Cube,
    /// Plummer sphere, one plan.
    Plummer,
    /// The same uniform cube, registered with `k = 4` shards.
    CubeSharded,
}

impl ServeSet {
    /// Round-robin order of the schedule.
    pub const ALL: [ServeSet; 3] = [ServeSet::Cube, ServeSet::Plummer, ServeSet::CubeSharded];
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct RequestSpec {
    /// Target dataset.
    pub set: ServeSet,
    /// Field query (otherwise potentials).
    pub fields: bool,
    /// Target points, drawn from the dataset's own distribution.
    pub points: Vec<Vec3>,
}

/// The serve_hot inputs: two datasets and one request schedule per client.
pub struct ServeInputs {
    /// Uniform cube, charges uniform in `[0.5, 1.5]`.
    pub cube: Vec<Particle>,
    /// Plummer sphere, equal positive masses.
    pub plummer: Vec<Particle>,
    /// Per client: requests round-robin over the three datasets, every
    /// 4th one a field query.
    pub schedules: [Vec<RequestSpec>; 2],
}

impl ServeInputs {
    /// The source particles behind `set`.
    #[must_use]
    pub fn sources(&self, set: ServeSet) -> &[Particle] {
        match set {
            ServeSet::Cube | ServeSet::CubeSharded => &self.cube,
            ServeSet::Plummer => &self.plummer,
        }
    }
}

/// Generates the serve_hot inputs for `seed`.
#[must_use]
pub fn serve_inputs(seed: u64) -> ServeInputs {
    let schedule = |client: u64| -> Vec<RequestSpec> {
        (0..SCHEDULE_LEN)
            .map(|i| {
                let set = ServeSet::ALL[i % 3];
                let s = stream(seed, 100 + client * 1000 + i as u64);
                let points = match set {
                    ServeSet::Cube | ServeSet::CubeSharded => cube(SERVE_TARGETS, s),
                    ServeSet::Plummer => plummer(SERVE_TARGETS, 1.0, 1.0, s),
                }
                .iter()
                .map(|p| p.position)
                .collect();
                RequestSpec {
                    set,
                    fields: i % 4 == 3,
                    points,
                }
            })
            .collect()
    };
    ServeInputs {
        cube: cube(SERVE_N, stream(seed, 1)),
        plummer: plummer(SERVE_N, 1.0, 1.0, stream(seed, 2)),
        schedules: [schedule(0), schedule(1)],
    }
}

/// The particles of matvec_cold's dataset version `step`.
#[must_use]
pub fn matvec_particles(seed: u64, step: u64) -> Vec<Particle> {
    cube(MATVEC_N, stream(seed, 10_000 + step))
}

/// `k` distinct indices below `n`, sorted.
#[must_use]
pub fn sample_indices(seed: u64, purpose: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(stream(seed, purpose));
    let mut idx: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// The unit icosphere(3) under a seeded uniformly random rotation: the
/// capacitance is still exactly 1, but the octree and FMM grids see a new
/// geometry for every seed.
#[must_use]
pub fn bem_mesh(seed: u64) -> TriMesh {
    let mut rng = StdRng::seed_from_u64(stream(seed, 20_000));
    // Shoemake's uniform random unit quaternion
    let (u1, u2, u3): (f64, f64, f64) = (rng.gen(), rng.gen(), rng.gen());
    let tau = std::f64::consts::TAU;
    let (a, b) = ((1.0 - u1).sqrt(), u1.sqrt());
    let (w, x, y, z) = (
        a * (tau * u2).sin(),
        a * (tau * u2).cos(),
        b * (tau * u3).sin(),
        b * (tau * u3).cos(),
    );
    let rotate = |v: Vec3| -> Vec3 {
        Vec3::new(
            (1.0 - 2.0 * (y * y + z * z)) * v.x
                + 2.0 * (x * y - w * z) * v.y
                + 2.0 * (x * z + w * y) * v.z,
            2.0 * (x * y + w * z) * v.x
                + (1.0 - 2.0 * (x * x + z * z)) * v.y
                + 2.0 * (y * z - w * x) * v.z,
            2.0 * (x * z - w * y) * v.x
                + 2.0 * (y * z + w * x) * v.y
                + (1.0 - 2.0 * (x * x + y * y)) * v.z,
        )
    };
    let mut mesh = shapes::icosphere(3, 1.0);
    for v in &mut mesh.vertices {
        *v = rotate(*v);
    }
    mesh
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = serve_inputs(7);
        let b = serve_inputs(7);
        let c = serve_inputs(8);
        assert_eq!(a.cube[123].position, b.cube[123].position);
        assert_eq!(a.schedules[1][5].points, b.schedules[1][5].points);
        assert_ne!(a.cube[123].position, c.cube[123].position);
        assert_ne!(a.schedules[0][0].points, a.schedules[1][0].points);
        assert_eq!(
            matvec_particles(3, 1)[9].position,
            matvec_particles(3, 1)[9].position
        );
        assert_ne!(
            matvec_particles(3, 1)[9].position,
            matvec_particles(3, 2)[9].position
        );
    }

    #[test]
    fn schedule_is_round_robin_with_every_fourth_a_field_query() {
        let s = serve_inputs(1);
        for sched in &s.schedules {
            assert_eq!(sched.len(), SCHEDULE_LEN);
            for (i, r) in sched.iter().enumerate() {
                assert_eq!(r.set, ServeSet::ALL[i % 3]);
                assert_eq!(r.fields, i % 4 == 3);
                assert_eq!(r.points.len(), SERVE_TARGETS);
            }
        }
    }

    #[test]
    fn rotated_mesh_stays_the_unit_sphere() {
        let m = bem_mesh(5);
        let base = shapes::icosphere(3, 1.0);
        assert_eq!(m.triangles, base.triangles);
        assert!((m.total_area() - base.total_area()).abs() < 1e-9);
        for v in &m.vertices {
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
        assert_ne!(m.vertices[0], bem_mesh(6).vertices[0]);
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let idx = sample_indices(1, 2, 1000, 128);
        assert_eq!(idx.len(), 128);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.iter().all(|&i| i < 1000));
    }
}
