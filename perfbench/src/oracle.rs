//! The benchmark's own oracles: a union-find for connectivity and a rooted
//! DFS view of a forest for path and subtree sums.  Neither calls into the
//! program.

/// Union-find with path halving and union by size.
pub struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl Dsu {
    pub fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// A DSU over `n` vertices with every edge of `edges` united.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut d = Dsu::new(n);
        for &(u, v) in edges {
            d.union(u, v);
        }
        d
    }

    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let gp = self.parent[self.parent[x] as usize];
            self.parent[x] = gp;
            x = gp as usize;
        }
        x
    }

    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.components -= 1;
        true
    }

    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of vertices in `v`'s component.
    pub fn size_of(&mut self, v: usize) -> u64 {
        let r = self.find(v);
        self.size[r] as u64
    }

    pub fn components(&self) -> usize {
        self.components
    }

    /// Whether `labels` (one per vertex) induce exactly this partition.
    pub fn same_partition(&mut self, labels: &[u32]) -> bool {
        let n = self.parent.len();
        if labels.len() != n {
            return false;
        }
        let mut root_of_label = std::collections::HashMap::new();
        let mut label_of_root = std::collections::HashMap::new();
        for (v, &l) in labels.iter().enumerate() {
            let r = self.find(v);
            if *root_of_label.entry(l).or_insert(r) != r
                || *label_of_root.entry(r).or_insert(l) != l
            {
                return false;
            }
        }
        true
    }
}

/// A forest rooted at one vertex per component, with depths, parents,
/// root-to-vertex weight sums and subtree sums.
pub struct TreeOracle {
    parent: Vec<usize>,
    depth: Vec<u32>,
    root: Vec<usize>,
    prefix: Vec<i64>,
    subtree: Vec<i64>,
    weight: Vec<i64>,
}

impl TreeOracle {
    pub fn new(n: usize, edges: &[(usize, usize)], weight: &[i64]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            adj[u].push(v);
            adj[v].push(u);
        }
        let mut parent = vec![usize::MAX; n];
        let mut depth = vec![0u32; n];
        let mut root = vec![usize::MAX; n];
        let mut prefix = vec![0i64; n];
        let mut order = Vec::with_capacity(n);
        for s in 0..n {
            if root[s] != usize::MAX {
                continue;
            }
            root[s] = s;
            prefix[s] = weight[s];
            let first = order.len();
            order.push(s);
            let mut i = first;
            while i < order.len() {
                let x = order[i];
                i += 1;
                for &y in &adj[x] {
                    if root[y] == usize::MAX {
                        root[y] = s;
                        parent[y] = x;
                        depth[y] = depth[x] + 1;
                        prefix[y] = prefix[x] + weight[y];
                        order.push(y);
                    }
                }
            }
        }
        let mut subtree = weight.to_vec();
        for &x in order.iter().rev() {
            if parent[x] != usize::MAX {
                subtree[parent[x]] += subtree[x];
            }
        }
        TreeOracle {
            parent,
            depth,
            root,
            prefix,
            subtree,
            weight: weight.to_vec(),
        }
    }

    pub fn connected(&self, u: usize, v: usize) -> bool {
        self.root[u] == self.root[v]
    }

    /// Sum of weights on the `u`–`v` path, both ends included.
    pub fn path_sum(&self, u: usize, v: usize) -> Option<i64> {
        if !self.connected(u, v) {
            return None;
        }
        let (mut a, mut b) = (u, v);
        while self.depth[a] > self.depth[b] {
            a = self.parent[a];
        }
        while self.depth[b] > self.depth[a] {
            b = self.parent[b];
        }
        while a != b {
            a = self.parent[a];
            b = self.parent[b];
        }
        Some(self.prefix[u] + self.prefix[v] - 2 * self.prefix[a] + self.weight[a])
    }

    /// Sum over `v`'s side of the edge `(v, p)`; `None` when it is no edge.
    pub fn subtree_sum(&self, v: usize, p: usize) -> Option<i64> {
        if self.parent[v] == p {
            Some(self.subtree[v])
        } else if self.parent[p] == v {
            Some(self.subtree[self.root[v]] - self.subtree[p])
        } else {
            None
        }
    }
}
