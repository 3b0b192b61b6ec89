//! Disjoint-set union with the cluster metadata the union-find decoder
//! tracks: defect parity and boundary contact.

/// Union-find over `n` elements with union-by-size and path compression,
/// carrying per-cluster defect parity and a touches-boundary flag.
#[derive(Debug, Clone)]
pub struct ClusterSets {
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Defect parity of the cluster rooted here (valid at roots).
    odd: Vec<bool>,
    /// Whether the cluster contains a boundary node (valid at roots).
    boundary: Vec<bool>,
}

impl ClusterSets {
    /// Creates `n` singleton clusters. Mark defects and boundary nodes
    /// with [`Self::set_defect`] / [`Self::set_boundary`] before growing.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            odd: vec![false; n],
            boundary: vec![false; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Marks element `x` as a defect (flips its singleton parity).
    ///
    /// # Panics
    ///
    /// Panics if called after unions began and `x` is no longer a root.
    pub fn set_defect(&mut self, x: usize) {
        assert_eq!(self.parent[x] as usize, x, "set_defect after unions");
        self.odd[x] = !self.odd[x];
    }

    /// Marks element `x` as a boundary node.
    ///
    /// # Panics
    ///
    /// Panics if called after unions began and `x` is no longer a root.
    pub fn set_boundary(&mut self, x: usize) {
        assert_eq!(self.parent[x] as usize, x, "set_boundary after unions");
        self.boundary[x] = true;
    }

    /// Returns element `x` to a fresh singleton (no defect, boundary flag
    /// as given). Resetting every element a decode touched restores the
    /// structure without reallocating it.
    pub fn reset(&mut self, x: usize, boundary: bool) {
        self.parent[x] = x as u32;
        self.size[x] = 1;
        self.odd[x] = false;
        self.boundary[x] = boundary;
    }

    /// Root of `x`'s cluster (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = x;
        while self.parent[cur] as usize != cur {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Merges the clusters of `a` and `b`; returns the new root.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        let parity = self.odd[big] ^ self.odd[small];
        self.odd[big] = parity;
        self.boundary[big] |= self.boundary[small];
        big
    }

    /// Whether `x`'s cluster still needs to grow: odd defect parity and no
    /// boundary contact.
    pub fn is_active(&mut self, x: usize) -> bool {
        let r = self.find(x);
        self.odd[r] && !self.boundary[r]
    }

    /// Defect parity of `x`'s cluster.
    pub fn parity(&mut self, x: usize) -> bool {
        let r = self.find(x);
        self.odd[r]
    }

    /// Boundary contact of `x`'s cluster.
    pub fn touches_boundary(&mut self, x: usize) -> bool {
        let r = self.find(x);
        self.boundary[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_start_inactive() {
        let mut s = ClusterSets::new(4);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        for i in 0..4 {
            assert!(!s.is_active(i));
        }
    }

    #[test]
    fn defect_makes_cluster_active() {
        let mut s = ClusterSets::new(4);
        s.set_defect(2);
        assert!(s.is_active(2));
        assert!(!s.is_active(1));
    }

    #[test]
    fn pairing_two_defects_neutralizes() {
        let mut s = ClusterSets::new(4);
        s.set_defect(0);
        s.set_defect(1);
        s.union(0, 1);
        assert!(!s.is_active(0));
        assert!(!s.parity(1));
    }

    #[test]
    fn boundary_contact_deactivates() {
        let mut s = ClusterSets::new(4);
        s.set_defect(0);
        s.set_boundary(3);
        s.union(0, 3);
        assert!(s.parity(0), "parity stays odd");
        assert!(s.touches_boundary(0));
        assert!(!s.is_active(0), "boundary clusters stop growing");
    }

    #[test]
    fn union_find_invariants() {
        let mut s = ClusterSets::new(10);
        for i in 0..9 {
            s.union(i, i + 1);
        }
        let root = s.find(0);
        for i in 1..10 {
            assert_eq!(s.find(i), root);
        }
    }

    #[test]
    fn reset_restores_touched_elements() {
        let mut s = ClusterSets::new(4);
        s.set_boundary(3);
        s.set_defect(0);
        s.set_defect(1);
        s.union(0, 1);
        s.union(1, 3);
        for (x, boundary) in [(0, false), (1, false), (3, true)] {
            s.reset(x, boundary);
        }
        for x in 0..4 {
            assert_eq!(s.find(x), x);
            assert!(!s.parity(x));
        }
        assert!(s.touches_boundary(3) && !s.touches_boundary(0));
        s.set_defect(0);
        assert!(s.is_active(0), "a reset element takes new defects");
    }

    #[test]
    fn triple_defect_cluster_stays_odd() {
        let mut s = ClusterSets::new(5);
        for i in 0..3 {
            s.set_defect(i);
        }
        s.union(0, 1);
        s.union(1, 2);
        assert!(s.parity(0));
        assert!(s.is_active(2));
    }
}
