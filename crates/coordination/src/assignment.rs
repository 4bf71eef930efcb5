//! Segment-container → segment-store assignment.
//!
//! The key space of container ids is partitioned across the available segment
//! store instances (§2.2). Pravega keeps this assignment in ZooKeeper and
//! recomputes it when membership changes (§4.4: when a store crashes, its
//! containers are redistributed across the remaining instances).

use std::collections::BTreeMap;

use crate::store::{CoordinationService, SessionId};

/// Path of the node holding the serialized assignment map.
pub const ASSIGNMENT_PATH: &str = "/cluster/assignment";
/// Prefix under which segment stores register ephemeral host nodes.
pub const HOSTS_PREFIX: &str = "/cluster/hosts/";

/// Deterministically assigns `container_count` containers across `hosts`.
///
/// Hosts are sorted for determinism and containers are dealt round-robin, so
/// any two nodes computing the assignment from the same membership agree, and
/// the imbalance is at most one container.
pub fn compute_assignment(hosts: &[String], container_count: u32) -> BTreeMap<u32, String> {
    let mut sorted: Vec<&String> = hosts.iter().collect();
    sorted.sort();
    sorted.dedup();
    let mut map = BTreeMap::new();
    if sorted.is_empty() {
        return map;
    }
    for container in 0..container_count {
        map.insert(container, sorted[container as usize % sorted.len()].clone());
    }
    map
}

fn encode_assignment(map: &BTreeMap<u32, String>) -> Vec<u8> {
    let mut out = String::new();
    for (container, host) in map {
        out.push_str(&format!("{container}={host}\n"));
    }
    out.into_bytes()
}

/// Maintains the container assignment node in the coordination store.
///
/// Run by whichever node holds cluster leadership. `rebalance` must be called
/// when membership changes (or periodically); it is idempotent.
#[derive(Debug)]
pub struct ContainerAssigner {
    coord: CoordinationService,
    container_count: u32,
}

impl ContainerAssigner {
    /// Creates an assigner managing `container_count` containers.
    pub fn new(coord: &CoordinationService, container_count: u32) -> Self {
        Self {
            coord: coord.clone(),
            container_count,
        }
    }

    /// Registers a segment store host (ephemeral — disappears if the host's
    /// session expires).
    ///
    /// # Errors
    ///
    /// Propagates coordination-store errors (dead session, duplicate host).
    pub fn register_host(
        coord: &CoordinationService,
        host: &str,
        session: SessionId,
    ) -> Result<(), crate::store::CoordError> {
        coord.create(
            &format!("{HOSTS_PREFIX}{host}"),
            host.as_bytes().to_vec(),
            crate::store::CreateMode::Ephemeral(session),
        )
    }

    /// Current live hosts.
    pub fn live_hosts(&self) -> Vec<String> {
        self.coord
            .list(HOSTS_PREFIX)
            .into_iter()
            .map(|p| p[HOSTS_PREFIX.len()..].to_string())
            .collect()
    }

    /// Recomputes the assignment from live membership and publishes it.
    /// Returns the published map.
    pub fn rebalance(&self) -> BTreeMap<u32, String> {
        let hosts = self.live_hosts();
        let map = compute_assignment(&hosts, self.container_count);
        self.coord.put(ASSIGNMENT_PATH, encode_assignment(&map));
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_assignment(data: &[u8]) -> BTreeMap<u32, String> {
        let mut map = BTreeMap::new();
        if let Ok(text) = std::str::from_utf8(data) {
            for line in text.lines() {
                if let Some((c, h)) = line.split_once('=') {
                    if let Ok(container) = c.parse::<u32>() {
                        map.insert(container, h.to_string());
                    }
                }
            }
        }
        map
    }

    fn hosts(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn assignment_is_balanced_and_deterministic() {
        let map = compute_assignment(&hosts(&["b", "a", "c"]), 8);
        assert_eq!(map.len(), 8);
        let mut counts: BTreeMap<&String, usize> = BTreeMap::new();
        for host in map.values() {
            *counts.entry(host).or_default() += 1;
        }
        let max = counts.values().max().unwrap();
        let min = counts.values().min().unwrap();
        assert!(max - min <= 1, "unbalanced: {counts:?}");
        // Deterministic regardless of input order.
        assert_eq!(map, compute_assignment(&hosts(&["c", "b", "a"]), 8));
    }

    #[test]
    fn empty_membership_yields_empty_assignment() {
        assert!(compute_assignment(&[], 8).is_empty());
    }

    #[test]
    fn single_host_owns_everything() {
        let map = compute_assignment(&hosts(&["only"]), 4);
        assert!(map.values().all(|h| h == "only"));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let map = compute_assignment(&hosts(&["a", "b"]), 5);
        assert_eq!(decode_assignment(&encode_assignment(&map)), map);
    }

    #[test]
    fn rebalance_publishes_and_reacts_to_failure() {
        let coord = CoordinationService::new();
        let s1 = coord.create_session();
        let s2 = coord.create_session();
        ContainerAssigner::register_host(&coord, "store-1", s1.id()).unwrap();
        ContainerAssigner::register_host(&coord, "store-2", s2.id()).unwrap();

        let assigner = ContainerAssigner::new(&coord, 4);
        let map = assigner.rebalance();
        assert_eq!(map.len(), 4);
        let (published, _) = coord.get(ASSIGNMENT_PATH).unwrap();
        assert_eq!(decode_assignment(&published), map);

        // store-1 dies: all containers move to store-2.
        coord.expire_session(s1.id());
        let map2 = assigner.rebalance();
        assert!(map2.values().all(|h| h == "store-2"));
    }
}
