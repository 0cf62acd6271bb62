//! Struct-of-arrays node storage.
//!
//! The round engine's hot loops each touch *one* field of every node —
//! the election scans battery and rotation bookkeeping, grid maintenance
//! scans positions, liveness masks scan `online` + battery. With the
//! array-of-structs [`Node`] layout each of those scans dragged the
//! whole ~80-byte record through cache for one field; at 1M nodes that
//! is the difference between streaming a few MB and streaming the whole
//! arena per phase. [`NodeArena`] stores each field in its own parallel
//! `Vec`, and the [`NodeRef`]/[`NodeMut`] views keep call sites reading
//! like the old struct (`net.node(id).is_alive()`,
//! `net.node_mut(id).battery.consume(e)`).
//!
//! [`Node`] itself survives as the *snapshot* type: builders assemble
//! deployments from `Node` values, serialization round-trips through
//! them, and [`NodeArena::snapshot`] materializes one on demand. The
//! per-round queue handle (a cluster head's slot in the current round's
//! roster) deliberately does **not** live here — it is round-scoped
//! scratch owned by the simulator, rebuilt from the head roster each
//! round (see `sim.rs`), so the arena only holds state with cross-round
//! lifetime.

use crate::node::{Node, NodeId, Role};
use qlec_geom::Vec3;
use qlec_radio::Battery;

/// Parallel per-field storage for all nodes, indexed by [`NodeId`].
#[derive(Debug, Clone, Default)]
pub struct NodeArena {
    pos: Vec<Vec3>,
    battery: Vec<Battery>,
    role: Vec<Role>,
    last_head_round: Vec<Option<u32>>,
    head_count: Vec<u32>,
    online: Vec<bool>,
}

/// Immutable view of one node — field-compatible with [`Node`] reads.
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'a> {
    pub id: NodeId,
    pub pos: Vec3,
    pub battery: &'a Battery,
    pub role: Role,
    pub last_head_round: Option<u32>,
    pub head_count: u32,
    pub online: bool,
}

/// Mutable view of one node. Plain-field writes become `*view.field = v`;
/// method calls (`view.battery.consume(e)`, `view.promote_to_head(r)`)
/// read exactly as they did on `&mut Node`.
#[derive(Debug)]
pub struct NodeMut<'a> {
    pub id: NodeId,
    pub pos: &'a mut Vec3,
    pub battery: &'a mut Battery,
    pub role: &'a mut Role,
    pub last_head_round: &'a mut Option<u32>,
    pub head_count: &'a mut u32,
    pub online: &'a mut bool,
}

impl NodeArena {
    /// Build the arena from snapshot records (consumes them field-wise).
    pub fn from_nodes(nodes: Vec<Node>) -> Self {
        let n = nodes.len();
        let mut arena = NodeArena {
            pos: Vec::with_capacity(n),
            battery: Vec::with_capacity(n),
            role: Vec::with_capacity(n),
            last_head_round: Vec::with_capacity(n),
            head_count: Vec::with_capacity(n),
            online: Vec::with_capacity(n),
        };
        for node in nodes {
            arena.push(node);
        }
        arena
    }

    /// Append one node; its [`NodeId`] must equal the current length
    /// (ids are dense indices).
    pub fn push(&mut self, node: Node) {
        debug_assert_eq!(
            node.id.index(),
            self.pos.len(),
            "node ids must be dense and in order"
        );
        self.pos.push(node.pos);
        self.battery.push(node.battery);
        self.role.push(node.role);
        self.last_head_round.push(node.last_head_round);
        self.head_count.push(node.head_count);
        self.online.push(node.online);
    }

    /// Number of node slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether the arena holds no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Immutable view of node `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> NodeRef<'_> {
        NodeRef {
            id: NodeId(i as u32),
            pos: self.pos[i],
            battery: &self.battery[i],
            role: self.role[i],
            last_head_round: self.last_head_round[i],
            head_count: self.head_count[i],
            online: self.online[i],
        }
    }

    /// Mutable view of node `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> NodeMut<'_> {
        NodeMut {
            id: NodeId(i as u32),
            pos: &mut self.pos[i],
            battery: &mut self.battery[i],
            role: &mut self.role[i],
            last_head_round: &mut self.last_head_round[i],
            head_count: &mut self.head_count[i],
            online: &mut self.online[i],
        }
    }

    /// Materialize node `i` as an owned snapshot record.
    pub fn snapshot(&self, i: usize) -> Node {
        Node {
            id: NodeId(i as u32),
            pos: self.pos[i],
            battery: self.battery[i],
            role: self.role[i],
            last_head_round: self.last_head_round[i],
            head_count: self.head_count[i],
            online: self.online[i],
        }
    }

    /// Iterate immutable views in id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeRef<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    // Column accessors: the hot loops that motivated the SoA layout read
    // exactly one field for all nodes — give them the bare column.

    /// All positions, in id order.
    #[inline]
    pub fn positions(&self) -> &[Vec3] {
        &self.pos
    }

    /// All batteries, in id order.
    #[inline]
    pub fn batteries(&self) -> &[Battery] {
        &self.battery
    }

    /// All roles, mutable, in id order (role reset sweeps this).
    #[inline]
    pub fn roles_mut(&mut self) -> &mut [Role] {
        &mut self.role
    }

    /// Whether node `i` can participate: hardware up and battery
    /// non-empty. Column-local, so liveness sweeps touch only two arrays.
    #[inline]
    pub fn is_alive(&self, i: usize) -> bool {
        self.online[i] && !self.battery[i].is_empty()
    }
}

impl<'a> NodeRef<'a> {
    /// Residual energy `E_i(r)`.
    #[inline]
    pub fn residual(&self) -> f64 {
        self.battery.residual()
    }

    /// Whether the node can still participate: hardware up *and* a
    /// non-empty battery.
    #[inline]
    pub fn is_alive(&self) -> bool {
        self.online && !self.battery.is_empty()
    }

    /// Whether the node is below the §5.1 death line.
    #[inline]
    pub fn below_death_line(&self, death_line: f64) -> bool {
        self.battery.depleted(death_line)
    }

    /// Whether the node has served as head within the last `n_i` rounds
    /// before (and including) round `r` — the DEEC candidacy exclusion.
    pub fn was_head_recently(&self, r: u32, n_i: u32) -> bool {
        match self.last_head_round {
            None => false,
            Some(last) => r.saturating_sub(last) < n_i,
        }
    }

    /// Owned snapshot of this view.
    pub fn to_node(&self) -> Node {
        Node {
            id: self.id,
            pos: self.pos,
            battery: *self.battery,
            role: self.role,
            last_head_round: self.last_head_round,
            head_count: self.head_count,
            online: self.online,
        }
    }
}

impl<'a> NodeMut<'a> {
    /// Residual energy `E_i(r)`.
    #[inline]
    pub fn residual(&self) -> f64 {
        self.battery.residual()
    }

    /// Whether the node can still participate.
    #[inline]
    pub fn is_alive(&self) -> bool {
        *self.online && !self.battery.is_empty()
    }

    /// Mark the node as this round's cluster head.
    pub fn promote_to_head(&mut self, round: u32) {
        *self.role = Role::ClusterHead;
        *self.last_head_round = Some(round);
        *self.head_count += 1;
    }

    /// Demote back to member (does not erase rotation bookkeeping). Used
    /// both between rounds and by Algorithm 3 when a redundant head
    /// withdraws; a withdrawal also takes back the head-count increment.
    pub fn demote_to_member(&mut self, withdraw: bool) {
        *self.role = Role::Member;
        if withdraw {
            *self.head_count = self.head_count.saturating_sub(1);
            // `last_head_round` is kept — same conservative choice as the
            // snapshot type's method documents.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> NodeArena {
        NodeArena::from_nodes(
            (0..4)
                .map(|i| Node::new(NodeId(i), Vec3::splat(i as f64), 5.0))
                .collect(),
        )
    }

    #[test]
    fn views_mirror_snapshot_fields() {
        let a = arena();
        let v = a.get(2);
        assert_eq!(v.id, NodeId(2));
        assert_eq!(v.pos, Vec3::splat(2.0));
        assert_eq!(v.role, Role::Member);
        assert_eq!(v.residual(), 5.0);
        assert!(v.is_alive());
        let snap = a.snapshot(2);
        assert_eq!(snap.id, v.id);
        assert_eq!(snap.pos, v.pos);
        assert_eq!(v.to_node().head_count, snap.head_count);
    }

    #[test]
    fn mutation_through_views() {
        let mut a = arena();
        {
            let mut m = a.get_mut(1);
            m.promote_to_head(3);
            m.battery.consume(1.5);
            *m.online = false;
        }
        let v = a.get(1);
        assert_eq!(v.role, Role::ClusterHead);
        assert_eq!(v.last_head_round, Some(3));
        assert_eq!(v.head_count, 1);
        assert_eq!(v.residual(), 3.5);
        assert!(!v.is_alive(), "offline overrides charge");
        assert!(!a.is_alive(1));
        assert!(a.is_alive(0));
    }

    #[test]
    fn withdrawal_reverses_head_count() {
        let mut a = arena();
        a.get_mut(0).promote_to_head(2);
        a.get_mut(0).demote_to_member(true);
        let v = a.get(0);
        assert_eq!(v.head_count, 0);
        assert_eq!(v.last_head_round, Some(2));
        assert_eq!(v.role, Role::Member);
    }

    #[test]
    fn columns_are_id_ordered() {
        let a = arena();
        assert_eq!(a.positions().len(), 4);
        assert_eq!(a.positions()[3], Vec3::splat(3.0));
        assert_eq!(a.batteries()[0].residual(), 5.0);
        let ids: Vec<NodeId> = a.iter().map(|v| v.id).collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }
}
