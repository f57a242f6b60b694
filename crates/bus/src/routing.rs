//! Address-to-bus routing, including the hierarchical extension.

use crate::Topology;
use decache_mem::Addr;
use std::fmt;

/// How addresses map onto the machine's buses.
///
/// * [`Routing::Interleaved`] — the paper's Figure 7-1: `2^k` peer buses
///   interleaved on the least significant address bits; every cache is
///   attached to (a slice of) every bus.
/// * [`Routing::Clustered`] — the Section 8 future-work hierarchy: "how
///   to extend our scheme to hierarchical structures more amiable to
///   large scale parallel processing". Bus 0 is the **global** shared
///   bus serving the shared region `[0, global_words)`; each of
///   `clusters` **cluster buses** serves that cluster's private region,
///   and only the cluster's own processors are attached to it. Traffic
///   to cluster-private data never loads the global bus, so the global
///   bus only carries genuinely shared references.
///
/// # Examples
///
/// ```
/// use decache_bus::Routing;
/// use decache_mem::Addr;
///
/// let r = Routing::clustered(4, 256, 256);
/// assert_eq!(r.bus_count(), 5);
/// assert_eq!(r.bus_of(Addr::new(10)), 0);        // shared -> global bus
/// assert_eq!(r.bus_of(Addr::new(256)), 1);       // cluster 0's region
/// assert_eq!(r.bus_of(Addr::new(256 + 300)), 2); // cluster 1's region
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Peer buses interleaved on low address bits.
    Interleaved(Topology),
    /// A two-level hierarchy: one global bus plus per-cluster buses.
    Clustered {
        /// Number of clusters (each with its own bus).
        clusters: usize,
        /// Size of the global shared region `[0, global_words)`.
        global_words: u64,
        /// Size of each cluster's private region, laid out consecutively
        /// after the global region.
        cluster_words: u64,
    },
}

impl Routing {
    /// Single-bus routing (the paper's Sections 3–6 machine).
    pub fn single() -> Self {
        Routing::Interleaved(Topology::single())
    }

    /// Interleaved routing over `2^bank_bits` buses.
    pub fn interleaved(bank_bits: u32) -> Self {
        Routing::Interleaved(Topology::new(bank_bits))
    }

    /// Clustered routing: `clusters` cluster buses behind one global bus.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` or `cluster_words` is zero.
    pub fn clustered(clusters: usize, global_words: u64, cluster_words: u64) -> Self {
        assert!(clusters > 0, "a hierarchy needs at least one cluster");
        assert!(cluster_words > 0, "cluster regions must be non-empty");
        Routing::Clustered {
            clusters,
            global_words,
            cluster_words,
        }
    }

    /// The number of buses.
    pub fn bus_count(&self) -> usize {
        match *self {
            Routing::Interleaved(t) => t.bus_count(),
            Routing::Clustered { clusters, .. } => 1 + clusters,
        }
    }

    /// The bus serving `addr`.
    ///
    /// # Panics
    ///
    /// Panics (clustered only) if `addr` lies beyond the last cluster's
    /// region.
    #[inline]
    pub fn bus_of(&self, addr: Addr) -> usize {
        self.try_bus_of(addr)
            .unwrap_or_else(|| panic!("address {addr} beyond the last cluster's region"))
    }

    /// The bus serving `addr`, or `None` (clustered only) if `addr` lies
    /// beyond the last cluster's region.
    #[inline]
    fn try_bus_of(&self, addr: Addr) -> Option<usize> {
        match *self {
            Routing::Interleaved(t) => Some(t.bus_of(addr)),
            Routing::Clustered {
                clusters,
                global_words,
                cluster_words,
            } => {
                if addr.index() < global_words {
                    Some(0)
                } else {
                    let cluster = (addr.index() - global_words) / cluster_words;
                    (cluster < clusters as u64).then_some(1 + cluster as usize)
                }
            }
        }
    }

    /// Whether PE `pe` (of `pe_count` total) snoops bus `bus`.
    ///
    /// Interleaved buses are snooped by everyone; a cluster bus only by
    /// that cluster's processors (consecutive, evenly divided).
    ///
    /// # Panics
    ///
    /// Panics (clustered only) if `pe_count` is not divisible by the
    /// cluster count.
    pub fn is_attached(&self, pe: usize, bus: usize, pe_count: usize) -> bool {
        match *self {
            Routing::Interleaved(_) => true,
            Routing::Clustered { clusters, .. } => {
                if bus == 0 {
                    return true;
                }
                assert!(
                    pe_count.is_multiple_of(clusters),
                    "{pe_count} PEs do not divide into {clusters} clusters"
                );
                let per_cluster = pe_count / clusters;
                pe / per_cluster == bus - 1
            }
        }
    }

    /// Whether PE `pe` (of `pe_count` total) snoops the bus serving
    /// `addr`; `false` if no bus serves it.
    ///
    /// # Panics
    ///
    /// As [`Routing::is_attached`].
    pub fn snoops(&self, pe: usize, addr: Addr, pe_count: usize) -> bool {
        self.try_bus_of(addr)
            .is_some_and(|bus| self.is_attached(pe, bus, pe_count))
    }

    /// The cluster PE `pe` belongs to (clustered routing only; all PEs
    /// share "cluster 0" under interleaved routing).
    pub fn cluster_of(&self, pe: usize, pe_count: usize) -> usize {
        match *self {
            Routing::Interleaved(_) => 0,
            Routing::Clustered { clusters, .. } => {
                let per_cluster = pe_count / clusters;
                pe / per_cluster
            }
        }
    }

    /// The private region of cluster `cluster` under clustered routing.
    ///
    /// # Panics
    ///
    /// Panics for interleaved routing or an out-of-range cluster.
    pub fn cluster_region(&self, cluster: usize) -> (Addr, u64) {
        match *self {
            Routing::Clustered {
                clusters,
                global_words,
                cluster_words,
            } => {
                assert!(cluster < clusters, "cluster {cluster} out of range");
                (
                    Addr::new(global_words + cluster as u64 * cluster_words),
                    cluster_words,
                )
            }
            Routing::Interleaved(_) => {
                panic!("interleaved routing has no cluster regions")
            }
        }
    }
}

impl Default for Routing {
    fn default() -> Self {
        Routing::single()
    }
}

impl fmt::Display for Routing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Routing::Interleaved(t) => write!(f, "{t}"),
            Routing::Clustered {
                clusters,
                global_words,
                cluster_words,
            } => write!(
                f,
                "hierarchical: global bus ({global_words} words) + {clusters} cluster bus(es) \
                 ({cluster_words} words each)"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_routing_is_one_bus_everyone_attached() {
        let r = Routing::single();
        assert_eq!(r.bus_count(), 1);
        assert_eq!(r.bus_of(Addr::new(12345)), 0);
        assert!(r.is_attached(7, 0, 16));
        assert_eq!(r.cluster_of(7, 16), 0);
    }

    #[test]
    fn interleaved_matches_topology() {
        let r = Routing::interleaved(1);
        assert_eq!(r.bus_count(), 2);
        assert_eq!(r.bus_of(Addr::new(3)), 1);
        assert!(r.is_attached(0, 1, 4));
    }

    #[test]
    fn clustered_routes_shared_to_global_bus() {
        let r = Routing::clustered(2, 128, 64);
        assert_eq!(r.bus_count(), 3);
        for a in [0u64, 64, 127] {
            assert_eq!(r.bus_of(Addr::new(a)), 0);
        }
        assert_eq!(r.bus_of(Addr::new(128)), 1);
        assert_eq!(r.bus_of(Addr::new(191)), 1);
        assert_eq!(r.bus_of(Addr::new(192)), 2);
        assert_eq!(r.bus_of(Addr::new(255)), 2);
    }

    #[test]
    #[should_panic(expected = "beyond the last cluster")]
    fn clustered_out_of_range_panics() {
        let _ = Routing::clustered(2, 128, 64).bus_of(Addr::new(256));
    }

    #[test]
    fn no_bus_serves_past_the_last_cluster() {
        let r = Routing::clustered(2, 128, 64);
        assert_eq!(r.try_bus_of(Addr::new(255)), Some(2));
        assert_eq!(r.try_bus_of(Addr::new(256)), None);
        assert_eq!(r.try_bus_of(Addr::new(1 << 40)), None);
        assert_eq!(Routing::interleaved(2).try_bus_of(Addr::new(7)), Some(3));
        // 4 PEs: P0 and P1 snoop cluster bus 1, none snoops past it.
        assert!(r.snoops(1, Addr::new(0), 4) && r.snoops(1, Addr::new(128), 4));
        assert!(!r.snoops(2, Addr::new(128), 4));
        assert!(!r.snoops(0, Addr::new(256), 4));
    }

    #[test]
    fn clustered_attachment_partitions_pes() {
        let r = Routing::clustered(2, 128, 64);
        // 4 PEs, 2 clusters: PEs 0-1 on cluster bus 1, PEs 2-3 on bus 2.
        for pe in 0..4 {
            assert!(r.is_attached(pe, 0, 4), "everyone on the global bus");
        }
        assert!(r.is_attached(0, 1, 4));
        assert!(r.is_attached(1, 1, 4));
        assert!(!r.is_attached(2, 1, 4));
        assert!(!r.is_attached(0, 2, 4));
        assert!(r.is_attached(3, 2, 4));
        assert_eq!(r.cluster_of(0, 4), 0);
        assert_eq!(r.cluster_of(3, 4), 1);
    }

    #[test]
    fn cluster_regions_are_consecutive() {
        let r = Routing::clustered(3, 100, 50);
        assert_eq!(r.cluster_region(0), (Addr::new(100), 50));
        assert_eq!(r.cluster_region(1), (Addr::new(150), 50));
        assert_eq!(r.cluster_region(2), (Addr::new(200), 50));
    }

    #[test]
    #[should_panic(expected = "no cluster regions")]
    fn interleaved_has_no_cluster_regions() {
        let _ = Routing::single().cluster_region(0);
    }

    #[test]
    fn display_names_the_shape() {
        assert!(Routing::single().to_string().contains("1 shared bus"));
        assert!(Routing::clustered(2, 64, 32)
            .to_string()
            .contains("hierarchical"));
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_clusters_panics() {
        let _ = Routing::clustered(0, 64, 32);
    }
}
