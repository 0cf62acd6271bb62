//! 3-D geometry substrate for the QLEC reproduction.
//!
//! The QLEC paper places sensor nodes in an `M × M × M` cube and reasons
//! about Euclidean distances in that volume: the distance from a node to its
//! cluster head (`d_toCH`, Lemma 1), from cluster heads to the base station
//! (`d_toBS`, Theorem 1), and the cluster coverage radius `d_c` (Eq. 5)
//! within which HELLO messages are broadcast. This crate provides:
//!
//! * [`Vec3`] — a small `f64` 3-vector with the usual operations,
//! * [`Aabb`] — axis-aligned boxes (the deployment cube and sub-volumes),
//! * [`sample`] — seeded uniform sampling in cubes, balls, and spheres,
//! * [`grid::UniformGrid`] — a uniform spatial hash for radius queries
//!   (the HELLO broadcast of Algorithm 3 touches every node within `d_c`),
//! * [`kdtree::KdTree`] — a k-d tree for nearest-neighbour queries on the
//!   2 896-node power-plant deployment,
//! * [`stats`] — streaming and batch statistics used by the metrics code,
//! * [`randx`] — exponential / normal / log-normal sampling built on `rand`
//!   (kept local instead of adding a `rand_distr` dependency).
//!
//! All sampling is deterministic given an RNG, so every experiment in the
//! repository is reproducible from a seed.

pub mod aabb;
pub mod grid;
pub mod kdtree;
pub mod randx;
pub mod sample;
pub mod stats;
pub mod vec3;

pub use aabb::Aabb;
pub use grid::UniformGrid;
pub use kdtree::KdTree;
pub use vec3::Vec3;
