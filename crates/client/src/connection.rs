//! Connection management: how the client reaches segment stores.
//!
//! Clients contact the segment store hosting a segment's container directly
//! (§3.2); the controller resolves segments to endpoints. The factory
//! abstraction lets the embedded cluster hand out in-process connections.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pravega_common::wire::{Connection, Reply, Request, RequestEnvelope};

use crate::error::ClientError;

/// Creates connections to segment-store endpoints.
pub trait ConnectionFactory: Send + Sync {
    /// Opens a connection to `endpoint`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Disconnected`] when the endpoint is unreachable.
    fn connect(&self, endpoint: &str) -> Result<Connection, ClientError>;
}

/// A convenience wrapper for strict request/response exchanges over a
/// dedicated connection (metadata ops, reads). Not for pipelined appends.
#[derive(Debug)]
pub struct RpcClient {
    connection: Connection,
    next_id: AtomicU64,
}

impl RpcClient {
    /// Wraps a connection.
    pub fn new(connection: Connection) -> Self {
        Self {
            connection,
            next_id: AtomicU64::new(1),
        }
    }

    /// Sends `request` and waits for its reply.
    ///
    /// # Errors
    ///
    /// [`ClientError::Disconnected`] if the peer went away.
    pub fn call(&self, request: Request) -> Result<Reply, ClientError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.connection
            .send(RequestEnvelope {
                request_id: id,
                request,
            })
            .map_err(|e| ClientError::Disconnected(e.to_string()))?;
        loop {
            let envelope = self
                .connection
                .recv()
                .map_err(|e| ClientError::Disconnected(e.to_string()))?;
            if envelope.request_id == id {
                return Ok(envelope.reply);
            }
        }
    }
}

/// A factory that always yields connections to a single in-process store
/// (ignoring endpoints) — useful in tests.
pub struct SingleEndpointFactory<F: Fn() -> Connection + Send + Sync> {
    connect_fn: F,
}

impl<F: Fn() -> Connection + Send + Sync> SingleEndpointFactory<F> {
    /// Wraps a connect closure.
    pub fn new(connect_fn: F) -> Self {
        Self { connect_fn }
    }
}

impl<F: Fn() -> Connection + Send + Sync> ConnectionFactory for SingleEndpointFactory<F> {
    fn connect(&self, _endpoint: &str) -> Result<Connection, ClientError> {
        Ok((self.connect_fn)())
    }
}

/// Boxed factory alias used throughout the client.
pub type SharedConnectionFactory = Arc<dyn ConnectionFactory>;

#[cfg(test)]
mod tests {
    use super::*;
    use pravega_common::id::{ScopedStream, SegmentId};
    use pravega_common::wire::connection_pair;
    use std::time::Duration;

    /// Regression for the shutdown-path `recv()` audit: a client blocked in
    /// `Connection::recv` must observe disconnect when the server end goes
    /// away — e.g. a frontend stopping — instead of blocking forever. The
    /// watchdog turns a hang into a failure.
    #[test]
    fn call_errors_on_disconnect_instead_of_hanging() {
        let (conn, server) = connection_pair();
        let client = RpcClient::new(conn);
        let segment = ScopedStream::new("s", "t")
            .unwrap()
            .segment(SegmentId::new(0, 0));
        let caller = std::thread::spawn(move || client.call(Request::GetSegmentInfo { segment }));
        // Let the caller block in recv() waiting for a reply, then shut the
        // server side down without answering.
        std::thread::sleep(Duration::from_millis(50));
        drop(server);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !caller.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "RpcClient::call hung after the server end disconnected"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(matches!(
            caller.join().unwrap(),
            Err(ClientError::Disconnected(_))
        ));
    }
}
