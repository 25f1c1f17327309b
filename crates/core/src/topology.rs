//! CPU core topology and the sibling-first allocation heuristic.
//!
//! "It is intuitive to first assign a VR the cores that are 'close' to LVRM
//! … Thus, the dynamic approach first allocates the *sibling cores*, i.e.,
//! the cores that reside in the same CPU as the core on which LVRM is
//! running, followed by the *non-sibling cores*" (paper §3.2). And from
//! Experiment 2a: a core should be dedicated to at most one VRI, and letting
//! the kernel float processes ("default") costs throughput.

/// A physical CPU core.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CoreId(pub u16);

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Core-affinity policies evaluated by Experiment 2a.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AffinityMode {
    /// Prefer cores in LVRM's own package, then spill to the other package
    /// (the paper's production heuristic).
    #[default]
    SiblingFirst,
    /// Deliberately allocate from the *other* package first (for the
    /// affinity experiment).
    NonSiblingFirst,
    /// Let the kernel place the VRI (no pinning); modeled as random
    /// placement with migration penalties in the testbed.
    Default,
    /// Pin the VRI onto LVRM's own core (two processes on one core — the
    /// pathological case in Fig. 4.8).
    Same,
}

impl AffinityMode {
    pub const ALL: [AffinityMode; 4] = [
        AffinityMode::SiblingFirst,
        AffinityMode::NonSiblingFirst,
        AffinityMode::Default,
        AffinityMode::Same,
    ];

    pub fn name(self) -> &'static str {
        match self {
            AffinityMode::SiblingFirst => "sibling",
            AffinityMode::NonSiblingFirst => "non-sibling",
            AffinityMode::Default => "default",
            AffinityMode::Same => "same",
        }
    }
}

/// Physical layout: which cores live in which CPU package.
#[derive(Clone, Debug)]
pub struct CoreTopology {
    /// `packages[p]` lists the cores of package `p`.
    packages: Vec<Vec<CoreId>>,
}

impl CoreTopology {
    /// Build from explicit package membership.
    pub fn new(packages: Vec<Vec<CoreId>>) -> CoreTopology {
        assert!(!packages.is_empty(), "topology needs at least one package");
        assert!(packages.iter().all(|p| !p.is_empty()), "empty package in topology");
        CoreTopology { packages }
    }

    /// The paper's gateway: two quad-core Xeon E5530 packages, cores 0–3 in
    /// package 0 and 4–7 in package 1 (§4.1).
    pub fn dual_quad_xeon() -> CoreTopology {
        CoreTopology::new(vec![(0..4).map(CoreId).collect(), (4..8).map(CoreId).collect()])
    }

    /// A uniform single-package topology with `n` cores.
    pub fn single_package(n: u16) -> CoreTopology {
        assert!(n > 0);
        CoreTopology::new(vec![(0..n).map(CoreId).collect()])
    }

    /// A declared multi-socket machine: `sockets` packages of
    /// `cores_per_socket` cores each, numbered contiguously (socket 0 gets
    /// cores `0..cps`, socket 1 gets `cps..2*cps`, …). Generalizes
    /// [`CoreTopology::dual_quad_xeon`] so NUMA-aware placement can be
    /// exercised on shapes beyond the paper's gateway.
    pub fn multi_socket(sockets: u16, cores_per_socket: u16) -> CoreTopology {
        assert!(sockets > 0 && cores_per_socket > 0);
        CoreTopology::new(
            (0..sockets)
                .map(|s| (s * cores_per_socket..(s + 1) * cores_per_socket).map(CoreId).collect())
                .collect(),
        )
    }

    /// Total number of cores.
    pub fn num_cores(&self) -> usize {
        self.packages.iter().map(|p| p.len()).sum()
    }

    /// Package index of `core`, if present.
    pub fn package_of(&self, core: CoreId) -> Option<usize> {
        self.packages.iter().position(|p| p.contains(&core))
    }

    /// Whether two cores share a package.
    pub fn siblings(&self, a: CoreId, b: CoreId) -> bool {
        match (self.package_of(a), self.package_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// All cores, package by package.
    pub fn all_cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.packages.iter().flatten().copied()
    }
}

/// Tracks which cores are free and hands them out according to an affinity
/// policy. LVRM's own core is reserved at construction (one core is always
/// "used by the LVRM process itself", §4.2 Exp. 2b).
#[derive(Clone, Debug)]
pub struct CoreMap {
    topology: CoreTopology,
    lvrm_core: CoreId,
    mode: AffinityMode,
    in_use: Vec<CoreId>,
}

impl CoreMap {
    pub fn new(topology: CoreTopology, lvrm_core: CoreId, mode: AffinityMode) -> CoreMap {
        assert!(
            topology.package_of(lvrm_core).is_some(),
            "LVRM home core {lvrm_core} not in topology"
        );
        CoreMap { topology, lvrm_core, mode, in_use: Vec::new() }
    }

    pub fn topology(&self) -> &CoreTopology {
        &self.topology
    }

    pub fn lvrm_core(&self) -> CoreId {
        self.lvrm_core
    }

    pub fn mode(&self) -> AffinityMode {
        self.mode
    }

    /// Cores currently assigned to VRIs.
    pub fn in_use(&self) -> &[CoreId] {
        &self.in_use
    }

    /// Cores still available for VRIs (never counts LVRM's core, except in
    /// `Same` mode where it is the only core ever handed out).
    pub fn available(&self) -> usize {
        match self.mode {
            AffinityMode::Same => usize::MAX, // over-subscribed by design
            _ => self.topology.num_cores() - 1 - self.in_use.len(),
        }
    }

    /// Candidate order per the affinity policy: the "best CPU" the paper's
    /// allocator pseudocode picks (Fig. 3.2).
    fn candidates(&self) -> Vec<CoreId> {
        let lvrm_pkg = self.topology.package_of(self.lvrm_core).expect("validated");
        let mut siblings: Vec<CoreId> = self
            .topology
            .all_cores()
            .filter(|c| *c != self.lvrm_core && self.topology.package_of(*c) == Some(lvrm_pkg))
            .collect();
        let mut others: Vec<CoreId> = self
            .topology
            .all_cores()
            .filter(|c| *c != self.lvrm_core && self.topology.package_of(*c) != Some(lvrm_pkg))
            .collect();
        siblings.sort_unstable();
        others.sort_unstable();
        match self.mode {
            AffinityMode::SiblingFirst => siblings.into_iter().chain(others).collect(),
            AffinityMode::NonSiblingFirst => others.into_iter().chain(siblings).collect(),
            // "Default" still picks distinct cores; the *placement* jitter is
            // the host's business (the testbed charges migration penalties).
            AffinityMode::Default => siblings.into_iter().chain(others).collect(),
            AffinityMode::Same => vec![self.lvrm_core],
        }
    }

    /// Allocate the best free core, or `None` when every candidate is taken.
    pub fn allocate(&mut self) -> Option<CoreId> {
        match self.mode {
            AffinityMode::Same => {
                // Every VRI lands on LVRM's core (deliberate contention).
                self.in_use.push(self.lvrm_core);
                Some(self.lvrm_core)
            }
            _ => {
                let core = self.candidates().into_iter().find(|c| !self.in_use.contains(c))?;
                self.in_use.push(core);
                Some(core)
            }
        }
    }

    /// Allocate the best free core *near* the given cores: packages already
    /// hosting one of `near` are preferred (most-populated first), so a VR's
    /// VRIs — and under the VLink fabric, the shared ring they all poll —
    /// stay on one NUMA node as long as it has room. Falls back to the
    /// plain affinity order when every nearby core is taken, and degenerates
    /// to [`CoreMap::allocate`] when `near` is empty.
    pub fn allocate_near(&mut self, near: &[CoreId]) -> Option<CoreId> {
        if near.is_empty() || self.mode == AffinityMode::Same {
            return self.allocate();
        }
        // Count how many of the anchor cores each package hosts.
        let mut weight = vec![0usize; self.topology.packages.len()];
        for c in near {
            if let Some(p) = self.topology.package_of(*c) {
                weight[p] += 1;
            }
        }
        let free: Vec<CoreId> =
            self.candidates().into_iter().filter(|c| !self.in_use.contains(c)).collect();
        let w = |c: CoreId| self.topology.package_of(c).map_or(0, |p| weight[p]);
        let best = free.iter().map(|c| w(*c)).max()?;
        // First candidate (affinity order) within the most-populated package.
        let core = free.into_iter().find(|c| w(*c) == best)?;
        self.in_use.push(core);
        Some(core)
    }

    /// Release a core back to the pool. Returns `false` if it was not
    /// allocated.
    pub fn release(&mut self, core: CoreId) -> bool {
        match self.in_use.iter().position(|c| *c == core) {
            Some(i) => {
                self.in_use.swap_remove(i);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xeon_map(mode: AffinityMode) -> CoreMap {
        CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), mode)
    }

    #[test]
    fn xeon_topology_shape() {
        let t = CoreTopology::dual_quad_xeon();
        assert_eq!(t.num_cores(), 8);
        assert!(t.siblings(CoreId(1), CoreId(3)));
        assert!(!t.siblings(CoreId(1), CoreId(5)));
        assert_eq!(t.package_of(CoreId(6)), Some(1));
        assert_eq!(t.package_of(CoreId(99)), None);
    }

    #[test]
    fn sibling_first_prefers_lvrm_package() {
        let mut m = xeon_map(AffinityMode::SiblingFirst);
        let order: Vec<u16> = (0..7).map(|_| m.allocate().unwrap().0).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5, 6, 7]);
        assert!(m.allocate().is_none(), "only 7 cores are allocatable");
    }

    #[test]
    fn non_sibling_first_prefers_other_package() {
        let mut m = xeon_map(AffinityMode::NonSiblingFirst);
        let order: Vec<u16> = (0..7).map(|_| m.allocate().unwrap().0).collect();
        assert_eq!(order, vec![4, 5, 6, 7, 1, 2, 3]);
    }

    #[test]
    fn same_mode_stacks_on_lvrm_core() {
        let mut m = xeon_map(AffinityMode::Same);
        assert_eq!(m.allocate(), Some(CoreId(0)));
        assert_eq!(m.allocate(), Some(CoreId(0)));
        assert_eq!(m.in_use().len(), 2);
    }

    #[test]
    fn release_recycles_cores() {
        let mut m = xeon_map(AffinityMode::SiblingFirst);
        let a = m.allocate().unwrap();
        let b = m.allocate().unwrap();
        assert!(m.release(b));
        assert!(!m.release(b), "double release rejected");
        let c = m.allocate().unwrap();
        assert_eq!(c, b, "freed core is preferred again");
        assert_eq!(a, CoreId(1));
    }

    #[test]
    fn lvrm_core_never_handed_out_normally() {
        let mut m = xeon_map(AffinityMode::SiblingFirst);
        for _ in 0..7 {
            assert_ne!(m.allocate(), Some(CoreId(0)));
        }
    }

    #[test]
    #[should_panic(expected = "not in topology")]
    fn lvrm_core_must_exist() {
        let _ =
            CoreMap::new(CoreTopology::single_package(2), CoreId(9), AffinityMode::SiblingFirst);
    }

    #[test]
    fn multi_socket_shape() {
        let t = CoreTopology::multi_socket(4, 6);
        assert_eq!(t.num_cores(), 24);
        assert_eq!(t.package_of(CoreId(0)), Some(0));
        assert_eq!(t.package_of(CoreId(6)), Some(1));
        assert_eq!(t.package_of(CoreId(23)), Some(3));
        assert!(t.siblings(CoreId(12), CoreId(17)));
        assert!(!t.siblings(CoreId(11), CoreId(12)));
    }

    #[test]
    fn allocate_near_prefers_the_anchors_package() {
        // LVRM on socket 0; anchors on socket 2 should pull the allocation
        // there even though sibling-first would pick socket 0.
        let mut m =
            CoreMap::new(CoreTopology::multi_socket(4, 4), CoreId(0), AffinityMode::SiblingFirst);
        let got = m.allocate_near(&[CoreId(8), CoreId(9)]).unwrap();
        assert_eq!(m.topology().package_of(got), Some(2));
        // Within the package, candidate ordering still applies (the anchors
        // themselves are free in this synthetic setup, so the lowest wins).
        assert_eq!(got, CoreId(8));
    }

    #[test]
    fn allocate_near_skips_in_use_anchors() {
        let mut m =
            CoreMap::new(CoreTopology::multi_socket(2, 4), CoreId(0), AffinityMode::SiblingFirst);
        // Simulate the VR's first two VRIs already holding socket-1 cores.
        m.in_use.push(CoreId(4));
        m.in_use.push(CoreId(5));
        let got = m.allocate_near(&[CoreId(4), CoreId(5)]).unwrap();
        assert_eq!(m.topology().package_of(got), Some(1), "stays on the ring's home socket");
        assert_eq!(got, CoreId(6));
    }

    #[test]
    fn allocate_near_falls_back_when_home_socket_is_full() {
        let mut m =
            CoreMap::new(CoreTopology::multi_socket(2, 2), CoreId(0), AffinityMode::SiblingFirst);
        m.in_use.push(CoreId(2));
        m.in_use.push(CoreId(3));
        // Socket 1 (the anchor's home) is full; spill per affinity order.
        let got = m.allocate_near(&[CoreId(2), CoreId(3)]).unwrap();
        assert_eq!(got, CoreId(1));
    }

    #[test]
    fn allocate_near_with_no_anchors_is_plain_allocate() {
        let mut m = xeon_map(AffinityMode::SiblingFirst);
        assert_eq!(m.allocate_near(&[]), Some(CoreId(1)));
    }
}
