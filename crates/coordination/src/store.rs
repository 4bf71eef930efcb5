//! The versioned key-value store at the heart of the coordination service.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use pravega_sync::{rank, Mutex};

/// Identifier of a client session. Ephemeral nodes die with their session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// How a node is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreateMode {
    /// The node survives session loss.
    Persistent,
    /// The node is deleted when the owning session expires.
    Ephemeral(SessionId),
}

/// Errors returned by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordError {
    /// Create failed: a node already exists at the path.
    NodeExists,
    /// The addressed node does not exist.
    NoNode,
    /// A conditional set/delete failed its version check.
    BadVersion {
        /// Version the caller expected.
        expected: i64,
        /// Version actually stored.
        actual: i64,
    },
    /// The referenced session does not exist (or already expired).
    NoSession,
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::NodeExists => write!(f, "node already exists"),
            CoordError::NoNode => write!(f, "no such node"),
            CoordError::BadVersion { expected, actual } => {
                write!(f, "bad version: expected {expected}, actual {actual}")
            }
            CoordError::NoSession => write!(f, "no such session"),
        }
    }
}

impl std::error::Error for CoordError {}

#[derive(Debug)]
struct Node {
    data: Vec<u8>,
    version: i64,
    owner: Option<SessionId>,
}

#[derive(Debug, Default)]
struct StoreInner {
    nodes: BTreeMap<String, Node>,
    sessions: BTreeMap<SessionId, ()>,
    next_session: u64,
}

/// A handle to a live session. Dropping the handle does **not** expire the
/// session (call [`CoordinationService::expire_session`]) so that failure
/// injection stays explicit in tests.
#[derive(Debug, Clone)]
pub struct Session {
    id: SessionId,
}

impl Session {
    /// The session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }
}

/// The coordination service: a shared, versioned KV tree.
#[derive(Debug, Clone)]
pub struct CoordinationService {
    inner: Arc<Mutex<StoreInner>>,
}

impl Default for CoordinationService {
    fn default() -> Self {
        Self::new()
    }
}

impl CoordinationService {
    /// Creates an empty coordination service.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Mutex::new(rank::COORDINATION_STORE, StoreInner::default())),
        }
    }

    /// Opens a new session.
    pub fn create_session(&self) -> Session {
        let mut inner = self.inner.lock();
        inner.next_session += 1;
        let id = SessionId(inner.next_session);
        inner.sessions.insert(id, ());
        Session { id }
    }

    /// Expires a session: all of its ephemeral nodes are deleted. Used both
    /// for graceful shutdown and failure injection.
    pub fn expire_session(&self, id: SessionId) {
        let mut inner = self.inner.lock();
        inner.sessions.remove(&id);
        inner.nodes.retain(|_, n| n.owner != Some(id));
    }

    /// Whether the session is still alive.
    pub fn session_alive(&self, id: SessionId) -> bool {
        self.inner.lock().sessions.contains_key(&id)
    }

    /// Creates a node.
    ///
    /// # Errors
    ///
    /// [`CoordError::NodeExists`] if the path is taken;
    /// [`CoordError::NoSession`] if an ephemeral owner has already expired.
    pub fn create(&self, path: &str, data: Vec<u8>, mode: CreateMode) -> Result<(), CoordError> {
        let mut inner = self.inner.lock();
        let owner = match mode {
            CreateMode::Persistent => None,
            CreateMode::Ephemeral(sid) => {
                if !inner.sessions.contains_key(&sid) {
                    return Err(CoordError::NoSession);
                }
                Some(sid)
            }
        };
        if inner.nodes.contains_key(path) {
            return Err(CoordError::NodeExists);
        }
        inner.nodes.insert(
            path.to_string(),
            Node {
                data,
                version: 0,
                owner,
            },
        );
        Ok(())
    }

    /// Reads a node's data and version.
    pub fn get(&self, path: &str) -> Option<(Vec<u8>, i64)> {
        let inner = self.inner.lock();
        inner.nodes.get(path).map(|n| (n.data.clone(), n.version))
    }

    /// Whether a node exists.
    pub fn exists(&self, path: &str) -> bool {
        self.inner.lock().nodes.contains_key(path)
    }

    /// Updates a node's data. When `expected_version` is given the write is
    /// conditional (compare-and-set). Returns the new version.
    ///
    /// # Errors
    ///
    /// [`CoordError::NoNode`] if the node does not exist;
    /// [`CoordError::BadVersion`] if the CAS fails.
    pub fn set(
        &self,
        path: &str,
        data: Vec<u8>,
        expected_version: Option<i64>,
    ) -> Result<i64, CoordError> {
        let mut inner = self.inner.lock();
        let node = inner.nodes.get_mut(path).ok_or(CoordError::NoNode)?;
        if let Some(expected) = expected_version {
            if node.version != expected {
                return Err(CoordError::BadVersion {
                    expected,
                    actual: node.version,
                });
            }
        }
        node.data = data;
        node.version += 1;
        Ok(node.version)
    }

    /// Creates the node if absent, otherwise overwrites unconditionally.
    /// Returns the resulting version.
    pub fn put(&self, path: &str, data: Vec<u8>) -> i64 {
        let mut inner = self.inner.lock();
        if let Some(node) = inner.nodes.get_mut(path) {
            node.data = data;
            node.version += 1;
            node.version
        } else {
            inner.nodes.insert(
                path.to_string(),
                Node {
                    data,
                    version: 0,
                    owner: None,
                },
            );
            0
        }
    }

    /// Deletes a node, optionally checking its version.
    ///
    /// # Errors
    ///
    /// [`CoordError::NoNode`] if absent; [`CoordError::BadVersion`] on a
    /// failed CAS.
    pub fn delete(&self, path: &str, expected_version: Option<i64>) -> Result<(), CoordError> {
        let mut inner = self.inner.lock();
        let node = inner.nodes.get(path).ok_or(CoordError::NoNode)?;
        if let Some(expected) = expected_version {
            if node.version != expected {
                return Err(CoordError::BadVersion {
                    expected,
                    actual: node.version,
                });
            }
        }
        inner.nodes.remove(path);
        Ok(())
    }

    /// Lists all paths with the given prefix, in lexicographic order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let inner = self.inner.lock();
        inner
            .nodes
            .range(prefix.to_string()..)
            .take_while(|(p, _)| p.starts_with(prefix))
            .map(|(p, _)| p.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_set_delete_lifecycle() {
        let c = CoordinationService::new();
        c.create("/a", b"1".to_vec(), CreateMode::Persistent)
            .unwrap();
        assert_eq!(c.get("/a"), Some((b"1".to_vec(), 0)));
        assert_eq!(c.set("/a", b"2".to_vec(), Some(0)).unwrap(), 1);
        assert_eq!(c.get("/a"), Some((b"2".to_vec(), 1)));
        c.delete("/a", Some(1)).unwrap();
        assert_eq!(c.get("/a"), None);
    }

    #[test]
    fn create_twice_fails() {
        let c = CoordinationService::new();
        c.create("/a", vec![], CreateMode::Persistent).unwrap();
        assert_eq!(
            c.create("/a", vec![], CreateMode::Persistent),
            Err(CoordError::NodeExists)
        );
    }

    #[test]
    fn cas_rejects_stale_version() {
        let c = CoordinationService::new();
        c.create("/a", vec![], CreateMode::Persistent).unwrap();
        c.set("/a", b"x".to_vec(), None).unwrap();
        assert_eq!(
            c.set("/a", b"y".to_vec(), Some(0)),
            Err(CoordError::BadVersion {
                expected: 0,
                actual: 1
            })
        );
        assert_eq!(
            c.delete("/a", Some(0)),
            Err(CoordError::BadVersion {
                expected: 0,
                actual: 1
            })
        );
    }

    #[test]
    fn set_missing_node_fails() {
        let c = CoordinationService::new();
        assert_eq!(c.set("/nope", vec![], None), Err(CoordError::NoNode));
        assert_eq!(c.delete("/nope", None), Err(CoordError::NoNode));
    }

    #[test]
    fn put_upserts() {
        let c = CoordinationService::new();
        assert_eq!(c.put("/a", b"1".to_vec()), 0);
        assert_eq!(c.put("/a", b"2".to_vec()), 1);
        assert_eq!(c.get("/a"), Some((b"2".to_vec(), 1)));
    }

    #[test]
    fn ephemeral_nodes_die_with_session() {
        let c = CoordinationService::new();
        let s = c.create_session();
        c.create("/e", vec![], CreateMode::Ephemeral(s.id()))
            .unwrap();
        c.create("/p", vec![], CreateMode::Persistent).unwrap();
        c.expire_session(s.id());
        assert!(!c.exists("/e"));
        assert!(c.exists("/p"));
        assert!(!c.session_alive(s.id()));
    }

    #[test]
    fn ephemeral_create_with_dead_session_fails() {
        let c = CoordinationService::new();
        let s = c.create_session();
        c.expire_session(s.id());
        assert_eq!(
            c.create("/e", vec![], CreateMode::Ephemeral(s.id())),
            Err(CoordError::NoSession)
        );
    }

    #[test]
    fn list_respects_prefix_and_order() {
        let c = CoordinationService::new();
        for p in ["/x/b", "/x/a", "/y/c", "/x2"] {
            c.create(p, vec![], CreateMode::Persistent).unwrap();
        }
        assert_eq!(c.list("/x/"), vec!["/x/a".to_string(), "/x/b".to_string()]);
    }
}
