//! The deployment: nodes, base station, radio and link models.
//!
//! §3.1: "We assume `N` nodes are randomly distributed in an `M × M × M`
//! cube. The green node in the center is the sink node." [`NetworkBuilder`]
//! constructs that canonical deployment (plus arbitrary ones for the
//! power-plant dataset), and [`Network`] exposes the aggregate quantities
//! the algorithms read: average residual energy (Eq. 1–2), mean distance to
//! the BS (`d_toBS`, Theorem 1), and per-node accessors.
//!
//! Node state lives in a struct-of-arrays [`NodeArena`]; `node`/`node_mut`
//! hand out [`NodeRef`]/[`NodeMut`] views that read like the old
//! array-of-structs [`Node`], which survives as the builder/serde snapshot
//! type.

use crate::arena::{NodeArena, NodeMut, NodeRef};
use crate::node::{Node, NodeId, Role};
use qlec_geom::sample::uniform_in_aabb;
use qlec_geom::{Aabb, Vec3};
use qlec_radio::link::AnyLink;
use qlec_radio::RadioModel;
use rand::Rng;
use serde::{Deserialize, Error, Serialize, Value};

/// A sensor-network deployment.
#[derive(Debug, Clone)]
pub struct Network {
    arena: NodeArena,
    bs_pos: Vec3,
    bounds: Aabb,
    pub radio: RadioModel,
    pub link: AnyLink,
}

impl Network {
    /// Immutable views of all nodes in id order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = NodeRef<'_>> {
        self.arena.iter()
    }

    /// One node by id.
    #[inline]
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        self.arena.get(id.index())
    }

    /// One node by id, mutable.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> NodeMut<'_> {
        self.arena.get_mut(id.index())
    }

    /// The struct-of-arrays storage (column access for hot loops).
    #[inline]
    pub fn arena(&self) -> &NodeArena {
        &self.arena
    }

    /// Number of nodes `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the deployment is empty.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Base-station (sink) position.
    #[inline]
    pub fn bs_pos(&self) -> Vec3 {
        self.bs_pos
    }

    /// Deployment bounding volume.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// The paper's `M`: the longest side of the deployment volume.
    pub fn side_length(&self) -> f64 {
        let e = self.bounds.extent();
        e.x.max(e.y).max(e.z)
    }

    /// Ids of all nodes.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.arena.len() as u32).map(NodeId)
    }

    /// Ids of nodes that can still participate.
    pub fn alive_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.arena.len())
            .filter(|&i| self.arena.is_alive(i))
            .map(|i| NodeId(i as u32))
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        (0..self.arena.len())
            .filter(|&i| self.arena.is_alive(i))
            .count()
    }

    /// Euclidean distance between two nodes.
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        let pos = self.arena.positions();
        pos[a.index()].dist(pos[b.index()])
    }

    /// Euclidean distance from a node to the base station.
    #[inline]
    pub fn dist_to_bs(&self, id: NodeId) -> f64 {
        self.arena.positions()[id.index()].dist(self.bs_pos)
    }

    /// Mean node→BS distance over all nodes — the `d_toBS` approximation
    /// Theorem 1 uses (following \[1\]: "d_toBS can be approximated by the
    /// average distance between the nodes and BS").
    pub fn mean_dist_to_bs(&self) -> f64 {
        if self.arena.is_empty() {
            return 0.0;
        }
        self.arena
            .positions()
            .iter()
            .map(|p| p.dist(self.bs_pos))
            .sum::<f64>()
            / self.arena.len() as f64
    }

    /// Sum of residual energies over all nodes.
    pub fn total_residual(&self) -> f64 {
        self.arena.batteries().iter().map(|b| b.residual()).sum()
    }

    /// Sum of initial energies (`E_initial` of Eq. 2 is this total).
    pub fn total_initial(&self) -> f64 {
        self.arena.batteries().iter().map(|b| b.initial()).sum()
    }

    /// Total energy consumed so far (the Fig. 3(b) quantity).
    pub fn total_consumed(&self) -> f64 {
        self.arena.batteries().iter().map(|b| b.consumed()).sum()
    }

    /// *Actual* average residual energy per node at the current instant —
    /// what Eq. 2 estimates without global knowledge. Algorithms may use
    /// either; the `deec_improved` module exposes both so the estimate's
    /// effect is testable.
    pub fn mean_residual(&self) -> f64 {
        if self.arena.is_empty() {
            return 0.0;
        }
        self.total_residual() / self.arena.len() as f64
    }

    /// Node positions in id order (for building spatial indexes).
    pub fn positions(&self) -> Vec<Vec3> {
        self.arena.positions().to_vec()
    }

    /// Node positions in id order, without allocating — feed this to
    /// [`qlec_geom::UniformGrid::build`] instead of [`Network::positions`]
    /// when the `Vec` copy is not needed.
    pub fn iter_positions(&self) -> impl Iterator<Item = Vec3> + '_ {
        self.arena.positions().iter().copied()
    }

    /// Reset every node's role to member (start of a round). One sweep
    /// over the role column — the other node fields stay cold.
    pub fn reset_roles(&mut self) {
        self.arena.roles_mut().fill(Role::Member);
    }

    /// The minimum residual energy over all nodes (`None` when empty) —
    /// the death-line comparison reads this.
    pub fn min_residual(&self) -> Option<f64> {
        self.arena
            .batteries()
            .iter()
            .map(|b| b.residual())
            .min_by(|a, b| a.total_cmp(b))
    }
}

// Hand-written serde keeping the pre-SoA wire shape: a `nodes` array of
// snapshot records plus the scalar fields, so stored deployments are
// layout-agnostic.
impl Serialize for Network {
    fn to_value(&self) -> Value {
        let nodes: Vec<Node> = (0..self.arena.len())
            .map(|i| self.arena.snapshot(i))
            .collect();
        Value::Object(vec![
            ("nodes".to_string(), nodes.to_value()),
            ("bs_pos".to_string(), self.bs_pos.to_value()),
            ("bounds".to_string(), self.bounds.to_value()),
            ("radio".to_string(), self.radio.to_value()),
            ("link".to_string(), self.link.to_value()),
        ])
    }
}

impl Deserialize for Network {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| Error::missing_field("Network", name))
        };
        let nodes: Vec<Node> = Deserialize::from_value(field("nodes")?)?;
        Ok(Network {
            arena: NodeArena::from_nodes(nodes),
            bs_pos: Deserialize::from_value(field("bs_pos")?)?,
            bounds: Deserialize::from_value(field("bounds")?)?,
            radio: Deserialize::from_value(field("radio")?)?,
            link: Deserialize::from_value(field("link")?)?,
        })
    }
}

/// Builder for [`Network`] deployments.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    radio: RadioModel,
    link: AnyLink,
    bs_pos: Option<Vec3>,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        NetworkBuilder {
            radio: RadioModel::paper(),
            link: AnyLink::default(),
            bs_pos: None,
        }
    }
}

impl NetworkBuilder {
    /// Start from defaults (paper radio constants, distance-loss link).
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the radio energy model.
    pub fn radio(mut self, radio: RadioModel) -> Self {
        self.radio = radio;
        self
    }

    /// Override the link model.
    pub fn link(mut self, link: AnyLink) -> Self {
        self.link = link;
        self
    }

    /// Place the base station somewhere other than the volume centre.
    pub fn bs_at(mut self, pos: Vec3) -> Self {
        self.bs_pos = Some(pos);
        self
    }

    fn assemble(self, nodes: Vec<Node>, bounds: Aabb) -> Network {
        Network {
            arena: NodeArena::from_nodes(nodes),
            bs_pos: self.bs_pos.unwrap_or_else(|| bounds.center()),
            bounds,
            radio: self.radio,
            link: self.link,
        }
    }

    /// The paper's canonical deployment: `n` nodes uniform in `[0, m]³`,
    /// all with `initial_energy` joules, BS at the cube centre (unless
    /// overridden).
    pub fn uniform_cube<R: Rng + ?Sized>(
        self,
        rng: &mut R,
        n: usize,
        m: f64,
        initial_energy: f64,
    ) -> Network {
        let bounds = Aabb::cube(m);
        let nodes = (0..n)
            .map(|i| {
                Node::new(
                    NodeId(i as u32),
                    uniform_in_aabb(rng, &bounds),
                    initial_energy,
                )
            })
            .collect();
        self.assemble(nodes, bounds)
    }

    /// A *two-tier heterogeneous* deployment in the DEEC tradition
    /// (\[11\] targets "heterogeneous wireless sensor networks"): a
    /// fraction `advanced_fraction` of the `n` nodes carries
    /// `(1 + advanced_boost)` times the normal energy. Advanced nodes
    /// are chosen uniformly (the first `⌈fraction·n⌉` ids after a
    /// shuffle-free deterministic stride, so runs stay reproducible).
    ///
    /// # Panics
    /// Panics if `advanced_fraction ∉ [0, 1]` or `advanced_boost < 0`.
    pub fn heterogeneous_cube<R: Rng + ?Sized>(
        self,
        rng: &mut R,
        n: usize,
        m: f64,
        normal_energy: f64,
        advanced_fraction: f64,
        advanced_boost: f64,
    ) -> Network {
        assert!(
            (0.0..=1.0).contains(&advanced_fraction),
            "advanced_fraction must be in [0,1]"
        );
        assert!(advanced_boost >= 0.0, "advanced_boost must be non-negative");
        let bounds = Aabb::cube(m);
        let advanced = (advanced_fraction * n as f64).round() as usize;
        let nodes = (0..n)
            .map(|i| {
                let energy = if i < advanced {
                    normal_energy * (1.0 + advanced_boost)
                } else {
                    normal_energy
                };
                Node::new(NodeId(i as u32), uniform_in_aabb(rng, &bounds), energy)
            })
            .collect();
        self.assemble(nodes, bounds)
    }

    /// Arbitrary deployment from `(position, initial_energy)` pairs — the
    /// §5.3 power-plant network enters through here.
    ///
    /// # Panics
    /// Panics if `spec` is empty (a network needs at least one node to
    /// define bounds) or any energy is negative.
    pub fn from_nodes(self, spec: &[(Vec3, f64)]) -> Network {
        assert!(!spec.is_empty(), "from_nodes requires at least one node");
        let positions: Vec<Vec3> = spec.iter().map(|&(p, _)| p).collect();
        let bounds = Aabb::enclosing(&positions).expect("non-empty");
        let nodes = spec
            .iter()
            .enumerate()
            .map(|(i, &(pos, e))| Node::new(NodeId(i as u32), pos, e))
            .collect();
        self.assemble(nodes, bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlec_geom::sample::MEAN_DIST_TO_CENTER_UNIT_CUBE;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_network() -> Network {
        let mut rng = StdRng::seed_from_u64(5);
        NetworkBuilder::new().uniform_cube(&mut rng, 100, 200.0, 5.0)
    }

    #[test]
    fn uniform_cube_shape() {
        let net = paper_network();
        assert_eq!(net.len(), 100);
        assert_eq!(net.bs_pos(), Vec3::splat(100.0));
        assert_eq!(net.side_length(), 200.0);
        assert_eq!(net.total_initial(), 500.0);
        assert_eq!(net.total_residual(), 500.0);
        assert_eq!(net.total_consumed(), 0.0);
        assert_eq!(net.alive_count(), 100);
        for n in net.iter() {
            assert!(net.bounds().contains(n.pos));
        }
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let net = paper_network();
        for (i, id) in net.ids().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(net.node(id).id, id);
        }
    }

    #[test]
    fn mean_dist_to_bs_near_constant() {
        // With 100 nodes the sample mean is noisy; use a bigger draw.
        let mut rng = StdRng::seed_from_u64(6);
        let net = NetworkBuilder::new().uniform_cube(&mut rng, 20_000, 200.0, 5.0);
        let want = MEAN_DIST_TO_CENTER_UNIT_CUBE * 200.0;
        let got = net.mean_dist_to_bs();
        assert!((got - want).abs() / want < 0.02, "got {got} want {want}");
    }

    #[test]
    fn energy_accounting_flows_through() {
        let mut net = paper_network();
        let id = NodeId(0);
        net.node_mut(id).battery.consume(2.0);
        assert_eq!(net.total_consumed(), 2.0);
        assert_eq!(net.total_residual(), 498.0);
        assert!((net.mean_residual() - 4.98).abs() < 1e-12);
        assert_eq!(net.min_residual(), Some(3.0));
    }

    #[test]
    fn alive_tracking() {
        let mut net = paper_network();
        net.node_mut(NodeId(3)).battery.consume(10.0);
        assert_eq!(net.alive_count(), 99);
        assert!(net.alive_ids().all(|id| id != NodeId(3)));
    }

    #[test]
    fn from_nodes_heterogeneous() {
        let spec = [
            (Vec3::new(0.0, 0.0, 0.0), 1.0),
            (Vec3::new(10.0, 0.0, 0.0), 2.0),
            (Vec3::new(10.0, 10.0, 4.0), 3.0),
        ];
        let net = NetworkBuilder::new().from_nodes(&spec);
        assert_eq!(net.len(), 3);
        assert_eq!(net.total_initial(), 6.0);
        assert_eq!(net.bs_pos(), Vec3::new(5.0, 5.0, 2.0));
        assert_eq!(net.node(NodeId(1)).residual(), 2.0);
        assert_eq!(net.distance(NodeId(0), NodeId(1)), 10.0);
    }

    #[test]
    fn bs_override() {
        let net = NetworkBuilder::new()
            .bs_at(Vec3::ZERO)
            .from_nodes(&[(Vec3::new(3.0, 4.0, 0.0), 1.0)]);
        assert_eq!(net.bs_pos(), Vec3::ZERO);
        assert_eq!(net.dist_to_bs(NodeId(0)), 5.0);
    }

    #[test]
    fn reset_roles() {
        let mut net = paper_network();
        net.node_mut(NodeId(1)).promote_to_head(0);
        net.reset_roles();
        assert!(net.iter().all(|n| n.role == Role::Member));
        // Rotation bookkeeping survives the reset.
        assert_eq!(net.node(NodeId(1)).last_head_round, Some(0));
    }

    #[test]
    #[should_panic]
    fn from_nodes_rejects_empty() {
        NetworkBuilder::new().from_nodes(&[]);
    }

    #[test]
    fn heterogeneous_two_tier_energies() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = NetworkBuilder::new().heterogeneous_cube(&mut rng, 100, 200.0, 5.0, 0.2, 1.0);
        assert_eq!(net.len(), 100);
        let advanced = net
            .iter()
            .filter(|n| (n.battery.initial() - 10.0).abs() < 1e-12)
            .count();
        let normal = net
            .iter()
            .filter(|n| (n.battery.initial() - 5.0).abs() < 1e-12)
            .count();
        assert_eq!(advanced, 20);
        assert_eq!(normal, 80);
        // Total: 80·5 + 20·10 = 600.
        assert!((net.total_initial() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_zero_fraction_is_homogeneous() {
        let mut rng = StdRng::seed_from_u64(10);
        let net = NetworkBuilder::new().heterogeneous_cube(&mut rng, 50, 200.0, 5.0, 0.0, 3.0);
        assert!(net.iter().all(|n| n.battery.initial() == 5.0));
    }

    #[test]
    #[should_panic]
    fn heterogeneous_rejects_bad_fraction() {
        let mut rng = StdRng::seed_from_u64(11);
        NetworkBuilder::new().heterogeneous_cube(&mut rng, 10, 200.0, 5.0, 1.5, 1.0);
    }

    #[test]
    fn serde_round_trip_preserves_node_state() {
        let mut net = paper_network();
        net.node_mut(NodeId(7)).promote_to_head(4);
        net.node_mut(NodeId(7)).battery.consume(1.25);
        *net.node_mut(NodeId(9)).online = false;
        let v = net.to_value();
        let back = Network::from_value(&v).expect("round trip");
        assert_eq!(back.len(), net.len());
        assert_eq!(back.node(NodeId(7)).last_head_round, Some(4));
        assert_eq!(
            back.node(NodeId(7)).residual(),
            net.node(NodeId(7)).residual()
        );
        assert!(!back.node(NodeId(9)).online);
        assert_eq!(back.bs_pos(), net.bs_pos());
        assert_eq!(back.total_residual(), net.total_residual());
    }
}
