//! TCP server frontend: exposes a [`SegmentStore`] over the framed wire
//! protocol (`pravega_common::protocol`).
//!
//! One frontend per store. It binds a loopback listener, accepts
//! connections, and runs each one through the *same* `connection_loop` that
//! serves embedded connections — the ack pump, append pipelining and
//! detached tail reads are identical on both transports, so a client cannot
//! observe which one it is on.
//!
//! Scale model: each accepted connection costs two socket-pump threads
//! (`pravega_common::tcp`), the handler thread (`tcpconn`) and its
//! `conn-ack-pump`, plus a `conn-tail-read` thread once a read parks on it;
//! the client side costs two more pumps. Appends from *all* connections
//! multiplex onto the store's container worker pools — the per-connection
//! threads only shuttle frames — and an event writer opens one connection
//! per store, carrying all its segments on channels of it. Backpressure is per
//! connection and structural: a connection whose handler lags stops reading
//! its socket (bounded inbound queue), stalling only that client's window;
//! a slow-reading client fills the bounded reply queue and stalls only its
//! own replies.
//!
//! The frontend also powers fault injection: [`TcpFrontend::kill_connections`]
//! severs every live socket mid-flight, which chaos tests use to prove the
//! event-number handshake keeps appends exactly-once across reconnects.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pravega_common::metrics::{Counter, Gauge, MetricsRegistry};
use pravega_common::tcp::serve_stream;
use pravega_sync::{rank, Mutex};

use crate::error::SegmentError;
use crate::store::{connection_loop, SegmentStore};

/// A running TCP listener serving one segment store.
pub struct TcpFrontend {
    local_addr: SocketAddr,
    stop: AtomicBool,
    next_conn_id: AtomicU64,
    conns: Mutex<HashMap<u64, TcpStream>>,
    connections_total: Arc<Counter>,
    connections_killed: Arc<Counter>,
    connections_active: Arc<Gauge>,
}

impl std::fmt::Debug for TcpFrontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpFrontend")
            .field("addr", &self.local_addr)
            .field("live", &self.conns.lock().len())
            .finish()
    }
}

impl TcpFrontend {
    /// Binds a loopback listener on an ephemeral port and starts accepting
    /// connections for `store`.
    ///
    /// # Errors
    ///
    /// [`SegmentError::Internal`] if the listener cannot be bound or the
    /// accept thread cannot be spawned.
    pub fn start(
        store: Arc<SegmentStore>,
        metrics: &MetricsRegistry,
    ) -> Result<Arc<TcpFrontend>, SegmentError> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| SegmentError::Internal(format!("bind frontend listener: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| SegmentError::Internal(format!("frontend local addr: {e}")))?;
        let frontend = Arc::new(TcpFrontend {
            local_addr,
            stop: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(0),
            conns: Mutex::new(rank::SEGMENTSTORE_FRONTEND, HashMap::new()),
            connections_total: metrics.counter("segmentstore.frontend.connections_total"),
            connections_killed: metrics.counter("segmentstore.frontend.connections_killed"),
            connections_active: metrics.gauge("segmentstore.frontend.connections_active"),
        });
        let accept_fe = frontend.clone();
        pravega_sync::spawn(format!("frontend-{}", store.host_id()), move || {
            accept_loop(listener, store, accept_fe)
        })
        .map_err(|e| SegmentError::Internal(format!("spawn frontend accept: {e}")))?;
        Ok(frontend)
    }

    /// The address clients dial (loopback, ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Severs every live connection mid-flight (both directions), returning
    /// how many were cut. Clients observe `ConnectionClosed` on in-flight
    /// and subsequent operations and must reconnect + re-handshake.
    pub fn kill_connections(&self) -> usize {
        // Clone the handles under the lock, sever outside it: shutdown(2)
        // acts on the shared socket, and it blocks (it is I/O), so it must
        // not run under the registry guard.
        let socks: Vec<TcpStream> = {
            let conns = self.conns.lock();
            conns.values().filter_map(|s| s.try_clone().ok()).collect()
        };
        let mut killed = 0;
        for sock in &socks {
            pravega_sync::blocking("socket shutdown");
            if sock.shutdown(Shutdown::Both).is_ok() {
                killed += 1;
            }
        }
        self.connections_killed.add(killed as u64);
        killed
    }

    /// Stops accepting, severs all live connections and lets the accept
    /// thread exit. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.kill_connections();
        // Unblock the accept() call so the thread notices the stop flag.
        let _ = TcpStream::connect(self.local_addr);
    }

    fn register(&self, sock: TcpStream) -> u64 {
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let mut conns = self.conns.lock();
        conns.insert(id, sock);
        self.connections_active.set(conns.len() as i64);
        self.connections_total.add(1);
        id
    }

    fn deregister(&self, id: u64) {
        let mut conns = self.conns.lock();
        conns.remove(&id);
        self.connections_active.set(conns.len() as i64);
    }
}

fn accept_loop(listener: TcpListener, store: Arc<SegmentStore>, frontend: Arc<TcpFrontend>) {
    loop {
        let sock = match listener.accept() {
            Ok((sock, _)) => sock,
            Err(_) => {
                if frontend.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if frontend.stop.load(Ordering::SeqCst) {
            return;
        }
        // Keep a handle for kill/stop; the pump threads own their clones.
        let registered = match sock.try_clone() {
            Ok(clone) => clone,
            Err(_) => {
                pravega_sync::blocking("socket shutdown");
                let _ = sock.shutdown(Shutdown::Both);
                continue;
            }
        };
        let server = match serve_stream(sock) {
            Ok(server) => server,
            Err(_) => {
                pravega_sync::blocking("socket shutdown");
                let _ = registered.shutdown(Shutdown::Both);
                continue;
            }
        };
        let id = frontend.register(registered);
        let conn_store = store.clone();
        let conn_fe = frontend.clone();
        let spawned = pravega_sync::spawn(format!("tcpconn-{}", store.host_id()), move || {
            connection_loop(conn_store, server);
            conn_fe.deregister(id);
        });
        if spawned.is_err() {
            // Could not serve it; drop the socket so the client fails fast.
            frontend.deregister(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ContainerConfig;
    use crate::store::SegmentStoreConfig;
    use pravega_common::id::{ScopedStream, SegmentId, WriterId};
    use pravega_common::wire::{Reply, Request};

    fn test_store() -> Arc<SegmentStore> {
        let config = SegmentStoreConfig {
            host_id: "fe-test".into(),
            container_count: 1,
            container: ContainerConfig::default(),
        };
        let lts = pravega_lts::ChunkedSegmentStorage::new(
            Arc::new(pravega_lts::InMemoryChunkStorage::new()),
            Arc::new(pravega_lts::InMemoryMetadataStore::new()),
            pravega_lts::ChunkedStorageConfig::default(),
        );
        let factory: crate::store::ContainerFactory = Arc::new(move |id| {
            crate::container::SegmentContainer::start(
                id,
                Arc::new(pravega_wal::log::InMemoryLog::new()),
                lts.clone(),
                Arc::new(pravega_common::clock::SystemClock::new()),
                ContainerConfig::default(),
            )
        });
        let store = SegmentStore::new(config, factory);
        store.start_container(0).unwrap();
        store
    }

    #[test]
    fn frontend_serves_wire_requests_over_tcp() {
        let store = test_store();
        let metrics = MetricsRegistry::new();
        let frontend = TcpFrontend::start(store, &metrics).unwrap();
        let conn = pravega_common::tcp::connect(frontend.local_addr()).unwrap();
        let segment = ScopedStream::new("fe", "s")
            .unwrap()
            .segment(SegmentId::new(0, 0));
        let reply = conn
            .call(
                1,
                Request::CreateSegment {
                    segment: segment.clone(),
                    is_table: false,
                },
            )
            .unwrap();
        assert_eq!(reply, Reply::SegmentCreated);
        let reply = conn
            .call(
                2,
                Request::SetupAppend {
                    writer_id: WriterId(7),
                    segment,
                },
            )
            .unwrap();
        assert_eq!(
            reply,
            Reply::AppendSetup {
                last_event_number: -1
            }
        );
        frontend.stop();
    }

    #[test]
    fn kill_connections_severs_live_clients() {
        let store = test_store();
        let metrics = MetricsRegistry::new();
        let frontend = TcpFrontend::start(store, &metrics).unwrap();
        let conn = pravega_common::tcp::connect(frontend.local_addr()).unwrap();
        let segment = ScopedStream::new("fe", "k")
            .unwrap()
            .segment(SegmentId::new(0, 0));
        // Prove the connection is live first.
        let reply = conn
            .call(
                1,
                Request::CreateSegment {
                    segment: segment.clone(),
                    is_table: false,
                },
            )
            .unwrap();
        assert_eq!(reply, Reply::SegmentCreated);
        assert!(frontend.kill_connections() >= 1);
        // The severed link must surface as closed, not hang.
        assert!(conn.call(2, Request::GetSegmentInfo { segment }).is_err());
        frontend.stop();
    }
}
