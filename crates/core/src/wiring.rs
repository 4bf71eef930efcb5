//! Glue between the control plane, the data plane and clients: segment
//! routing, endpoint resolution and in-process connections.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use pravega_client::{ClientError, ConnectionFactory};
use pravega_common::hashing::container_for_segment;
use pravega_common::id::ScopedSegment;
use pravega_common::wire::{Connection, Reply, Request};
use pravega_controller::{EndpointResolver, SegmentManager};
use pravega_coordination::Session;
use pravega_segmentstore::{SegmentStore, TcpFrontend};
use pravega_sync::Mutex;

/// A registered segment store instance plus its cluster session.
pub(crate) struct StoreHandle {
    pub store: Arc<SegmentStore>,
    pub session: Session,
    pub alive: bool,
    /// Present when the cluster runs the TCP transport: the store's framed
    /// TCP listener. `None` on the embedded (in-process) transport.
    pub frontend: Option<Arc<TcpFrontend>>,
}

/// Shared cluster routing state.
pub(crate) struct Routing {
    pub container_count: u32,
    pub stores: Mutex<HashMap<String, StoreHandle>>,
    pub assignment: Mutex<BTreeMap<u32, String>>,
}

impl Routing {
    /// The live store currently owning `segment`'s container.
    pub fn store_for(&self, segment: &ScopedSegment) -> Result<Arc<SegmentStore>, String> {
        let container = container_for_segment(segment, self.container_count);
        let host = self
            .assignment
            .lock()
            .get(&container)
            .cloned()
            .ok_or_else(|| format!("container {container} unassigned"))?;
        let stores = self.stores.lock();
        let handle = stores
            .get(&host)
            .ok_or_else(|| format!("unknown host {host}"))?;
        if !handle.alive {
            return Err(format!("host {host} is down"));
        }
        Ok(handle.store.clone())
    }

    /// Endpoint (host id) for a segment.
    pub fn endpoint(&self, segment: &ScopedSegment) -> String {
        let container = container_for_segment(segment, self.container_count);
        self.assignment
            .lock()
            .get(&container)
            .cloned()
            .unwrap_or_else(|| "unassigned".to_string())
    }
}

/// Calls a store synchronously, retrying once if the container is mid-move.
#[expect(
    clippy::disallowed_methods,
    reason = "bounded store-readiness poll during wiring bootstrap"
)]
pub(crate) fn call_store(routing: &Routing, request: Request) -> Result<Reply, String> {
    let mut last_err = String::new();
    for _ in 0..50 {
        match routing.store_for(request.segment()) {
            Ok(store) => {
                let reply = store.call(request.clone());
                match reply {
                    Reply::WrongHost | Reply::ContainerNotReady => {
                        last_err = "container not ready".into();
                    }
                    other => return Ok(other),
                }
            }
            Err(e) => last_err = e,
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    Err(format!("segment store unreachable: {last_err}"))
}

/// [`SegmentManager`] implementation over the in-process stores.
pub(crate) struct RoutedSegmentManager {
    pub routing: Arc<Routing>,
}

impl SegmentManager for RoutedSegmentManager {
    fn create_segment(&self, segment: &ScopedSegment) -> Result<(), String> {
        match call_store(
            &self.routing,
            Request::CreateSegment {
                segment: segment.clone(),
                is_table: false,
            },
        )? {
            Reply::SegmentCreated | Reply::SegmentAlreadyExists => Ok(()),
            other => Err(format!("create failed: {other:?}")),
        }
    }

    fn seal_segment(&self, segment: &ScopedSegment) -> Result<u64, String> {
        match call_store(
            &self.routing,
            Request::SealSegment {
                segment: segment.clone(),
            },
        )? {
            Reply::SegmentSealed { final_length } => Ok(final_length),
            other => Err(format!("seal failed: {other:?}")),
        }
    }

    fn delete_segment(&self, segment: &ScopedSegment) -> Result<(), String> {
        match call_store(
            &self.routing,
            Request::DeleteSegment {
                segment: segment.clone(),
            },
        )? {
            Reply::SegmentDeleted | Reply::NoSuchSegment => Ok(()),
            other => Err(format!("delete failed: {other:?}")),
        }
    }

    fn truncate_segment(&self, segment: &ScopedSegment, offset: u64) -> Result<(), String> {
        match call_store(
            &self.routing,
            Request::TruncateSegment {
                segment: segment.clone(),
                offset,
            },
        )? {
            Reply::SegmentTruncated => Ok(()),
            other => Err(format!("truncate failed: {other:?}")),
        }
    }

    fn segment_info(&self, segment: &ScopedSegment) -> Result<(u64, u64), String> {
        match call_store(
            &self.routing,
            Request::GetSegmentInfo {
                segment: segment.clone(),
            },
        )? {
            Reply::SegmentInfo(info) => Ok((info.length, info.start_offset)),
            other => Err(format!("info failed: {other:?}")),
        }
    }
}

/// [`EndpointResolver`] over the assignment map.
pub(crate) struct RoutedEndpointResolver {
    pub routing: Arc<Routing>,
}

impl EndpointResolver for RoutedEndpointResolver {
    fn endpoint_for(&self, segment: &ScopedSegment) -> String {
        self.routing.endpoint(segment)
    }
}

/// [`ConnectionFactory`] handing out connections to stores: framed TCP when
/// the store runs a frontend, in-process channel pairs otherwise. Client
/// code (writer, reader, RPC) cannot tell which transport it got.
pub(crate) struct RoutedConnectionFactory {
    pub routing: Arc<Routing>,
}

impl ConnectionFactory for RoutedConnectionFactory {
    fn connect(&self, endpoint: &str) -> Result<Connection, ClientError> {
        // Resolve under the lock, dial outside it: a TCP connect must never
        // hold the routing map hostage.
        let (store, tcp_addr) = {
            let stores = self.routing.stores.lock();
            let handle = stores
                .get(endpoint)
                .ok_or_else(|| ClientError::Disconnected(format!("unknown endpoint {endpoint}")))?;
            if !handle.alive {
                return Err(ClientError::Disconnected(format!("{endpoint} is down")));
            }
            (
                handle.store.clone(),
                handle.frontend.as_ref().map(|f| f.local_addr()),
            )
        };
        match tcp_addr {
            Some(addr) => pravega_common::tcp::connect(addr)
                .map_err(|e| ClientError::Disconnected(format!("dial {endpoint} ({addr}): {e}"))),
            None => store
                .connect()
                .map_err(|e| ClientError::Disconnected(format!("connect to {endpoint}: {e}"))),
        }
    }
}
