//! Framed TCP implementations of the [`crate::wire`] transport traits.
//!
//! Both ends share one shape: the socket is owned by two dedicated threads
//! (one reading, one writing) bridged to the rest of the process by
//! channels, so no lock is ever held across socket I/O.
//!
//! ```text
//!  client                                        server
//!  ──────                                        ──────
//!  send() ──▶ [bounded queue] ──▶ writer thread  reader thread ──▶ [bounded queue] ──▶ recv()
//!                                     │ frames      │ frames
//!                                     ▼             ▲
//!                                 TCP socket ═══════╝
//!  recv() ◀── [queue] ◀── reader thread         writer thread ◀── [bounded queue] ◀── send()
//! ```
//!
//! Backpressure is structural, not advisory:
//!
//! * A **client** whose peer stops draining fills its bounded send queue, at
//!   which point [`Transport::send`] blocks (and the socket's own buffers
//!   push back on the writer thread).
//! * A **server** whose handler falls behind stops pulling from its bounded
//!   inbound queue; the reader thread blocks feeding it and stops reading
//!   the socket, so the kernel's receive window closes and the client's
//!   writes stall. Slow consumers slow *their* connection only.
//!
//! Any socket error, EOF, or [`crate::protocol::CodecError`] tears the
//! connection down: both threads exit, the socket is shut down, and every
//! queued operation surfaces [`ConnectionClosed`].

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bytes::BytesMut;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::protocol::FrameDecoder;
use crate::wire::{
    Connection, ConnectionClosed, ReplyEnvelope, ReplyWakeup, RequestEnvelope, ServerEnd,
    ServerTransport, Transport, Wakeup,
};

// Historically defined here; now shared with the in-process transport so
// both exhibit the same backpressure envelope.
pub use crate::wire::SEND_QUEUE_DEPTH;

/// Bytes pulled from the socket per `read` call.
const READ_BUF_BYTES: usize = 64 * 1024;

fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .map(|_| ())
}

/// Drains `rx`, encodes each message with `encode`, and writes frames to
/// the socket. Exits (shutting the socket down) on channel disconnect or
/// write error.
fn write_pump<T>(stream: TcpStream, rx: Receiver<T>, encode: impl Fn(&T, &mut BytesMut)) {
    let mut stream = stream;
    let mut out = BytesMut::new();
    while let Ok(msg) = rx.recv() {
        out.clear();
        encode(&msg, &mut out);
        // Coalesce whatever else is already queued into the same syscall —
        // this is where client-side append pipelining turns into large
        // writes instead of one syscall per event.
        while out.len() < READ_BUF_BYTES {
            match rx.try_recv() {
                Ok(next) => encode(&next, &mut out),
                Err(_) => break,
            }
        }
        if stream.write_all(out.as_slice()).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads the socket, feeds the frame decoder, and forwards each decoded
/// message via `deliver`. Exits (shutting the socket down) on EOF, read
/// error, codec error, or when `deliver` reports the process side hung up.
fn read_pump<T>(
    stream: TcpStream,
    mut next: impl FnMut(&mut FrameDecoder) -> Result<Option<T>, crate::protocol::CodecError>,
    deliver: impl Fn(T) -> Result<(), ConnectionClosed>,
) {
    let mut stream = stream;
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; READ_BUF_BYTES];
    'io: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let Some(read) = buf.get(..n) else { break };
        decoder.feed(read);
        loop {
            match next(&mut decoder) {
                Ok(Some(msg)) => {
                    if deliver(msg).is_err() {
                        break 'io;
                    }
                }
                Ok(None) => break,
                // Unframed stream: nothing downstream is trustworthy.
                Err(_) => break 'io,
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Client-side framed TCP transport.
struct TcpClientTransport {
    tx: Sender<RequestEnvelope>,
    rx: Receiver<ReplyEnvelope>,
    wakeup: Arc<ReplyWakeup>,
}

impl Transport for TcpClientTransport {
    fn send(&self, envelope: RequestEnvelope) -> Result<(), ConnectionClosed> {
        self.tx.send(envelope).map_err(|_| ConnectionClosed)
    }

    fn recv(&self) -> Result<ReplyEnvelope, ConnectionClosed> {
        self.rx.recv().map_err(|_| ConnectionClosed)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<ReplyEnvelope>, ConnectionClosed> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => Ok(Some(env)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ConnectionClosed),
        }
    }

    fn try_recv(&self) -> Result<Option<ReplyEnvelope>, ConnectionClosed> {
        match self.rx.try_recv() {
            Ok(env) => Ok(Some(env)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(ConnectionClosed),
        }
    }

    fn wake_on_reply(&self, wakeup: Arc<Wakeup>) {
        self.wakeup.register(wakeup);
    }
}

/// Opens a framed TCP connection to a segment store frontend.
///
/// The returned [`Connection`] behaves identically to an embedded one; the
/// caller cannot tell (and must not care) which transport backs it.
///
/// # Errors
///
/// Any I/O error from connecting or configuring the socket.
pub fn connect(addr: SocketAddr) -> std::io::Result<Connection> {
    let stream = TcpStream::connect(addr)?;
    connect_stream(stream)
}

/// Wraps an already-connected socket in the client transport (used by tests
/// that need to hold the raw fd, e.g. to sever it mid-flight).
///
/// # Errors
///
/// Any I/O error from configuring the socket or spawning pump threads.
pub fn connect_stream(stream: TcpStream) -> std::io::Result<Connection> {
    stream.set_nodelay(true)?;
    let (req_tx, req_rx) = bounded::<RequestEnvelope>(SEND_QUEUE_DEPTH);
    // Bounded like the request direction: a client that stops consuming
    // replies stalls the reader pump, which stops reading the socket and
    // closes the kernel receive window back to the server (§4).
    let (rep_tx, rep_rx) = bounded::<ReplyEnvelope>(SEND_QUEUE_DEPTH);

    let writer_stream = stream.try_clone()?;
    spawn_named("tcp-cli-writer", move || {
        write_pump(writer_stream, req_rx, |env, out| {
            crate::protocol::encode_request(env, out);
        });
    })?;
    let wakeup = Arc::new(ReplyWakeup::default());
    let reader_wakeup = wakeup.clone();
    spawn_named("tcp-cli-reader", move || {
        read_pump(
            stream,
            |dec| dec.next_reply(),
            |env| {
                rep_tx.send(env).map_err(|_| ConnectionClosed)?;
                reader_wakeup.wake();
                Ok(())
            },
        );
        // Wake the owner to a queue that already reads as disconnected.
        drop(rep_tx);
        reader_wakeup.wake();
    })?;

    Ok(Connection::from_transport(Arc::new(TcpClientTransport {
        tx: req_tx,
        rx: rep_rx,
        wakeup,
    })))
}

/// Server-side framed TCP transport for one accepted connection.
struct TcpServerTransport {
    rx: Receiver<RequestEnvelope>,
    tx: Sender<ReplyEnvelope>,
}

impl ServerTransport for TcpServerTransport {
    fn recv(&self) -> Result<RequestEnvelope, ConnectionClosed> {
        self.rx.recv().map_err(|_| ConnectionClosed)
    }

    fn send(&self, envelope: ReplyEnvelope) -> Result<(), ConnectionClosed> {
        self.tx.send(envelope).map_err(|_| ConnectionClosed)
    }
}

/// Wraps an accepted socket in the server transport: requests flow out of
/// [`ServerEnd::recv`], replies flow into [`ServerEnd::send`].
///
/// Both directions ride bounded queues sized [`SEND_QUEUE_DEPTH`]; see the
/// module docs for how that turns into per-connection backpressure.
///
/// # Errors
///
/// Any I/O error from configuring the socket or spawning pump threads.
pub fn serve_stream(stream: TcpStream) -> std::io::Result<ServerEnd> {
    stream.set_nodelay(true)?;
    let (req_tx, req_rx) = bounded::<RequestEnvelope>(SEND_QUEUE_DEPTH);
    let (rep_tx, rep_rx) = bounded::<ReplyEnvelope>(SEND_QUEUE_DEPTH);

    let writer_stream = stream.try_clone()?;
    spawn_named("tcp-srv-writer", move || {
        write_pump(writer_stream, rep_rx, |env, out| {
            crate::protocol::encode_reply(env, out);
        });
    })?;
    spawn_named("tcp-srv-reader", move || {
        read_pump(
            stream,
            |dec| dec.next_request(),
            // A full queue blocks here, which stops the socket reads: the
            // kernel receive window closes and the client stalls.
            |env| req_tx.send(env).map_err(|_| ConnectionClosed),
        );
    })?;

    Ok(ServerEnd::from_transport(Arc::new(TcpServerTransport {
        rx: req_rx,
        tx: rep_tx,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ScopedStream, SegmentId};
    use crate::wire::{Reply, Request};
    use std::net::TcpListener;

    fn seg() -> crate::id::ScopedSegment {
        ScopedStream::new("s", "t")
            .unwrap()
            .segment(SegmentId::new(0, 7))
    }

    #[test]
    fn request_and_reply_cross_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let server = serve_stream(sock).unwrap();
            let req = server.recv().unwrap();
            assert_eq!(req.request_id, 42);
            assert!(matches!(req.request, Request::GetSegmentInfo { .. }));
            server
                .send(ReplyEnvelope {
                    request_id: req.request_id,
                    reply: Reply::NoSuchSegment,
                })
                .unwrap();
        });
        let conn = connect(addr).unwrap();
        let reply = conn
            .call(42, Request::GetSegmentInfo { segment: seg() })
            .unwrap();
        assert_eq!(reply, Reply::NoSuchSegment);
        srv.join().unwrap();
    }

    #[test]
    fn severed_socket_surfaces_connection_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conn = connect(addr).unwrap();
        let (sock, _) = listener.accept().unwrap();
        drop(sock);
        // The reader notices EOF; every blocked and future op must fail.
        let err = conn.recv();
        assert_eq!(err, Err(ConnectionClosed));
    }

    #[test]
    fn pipelined_requests_keep_their_ids_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let server = serve_stream(sock).unwrap();
            for _ in 0..50 {
                let req = server.recv().unwrap();
                server
                    .send(ReplyEnvelope {
                        request_id: req.request_id,
                        reply: Reply::SegmentCreated,
                    })
                    .unwrap();
            }
        });
        let conn = connect(addr).unwrap();
        for id in 0..50u64 {
            conn.send(RequestEnvelope {
                request_id: id,
                request: Request::CreateSegment {
                    segment: seg(),
                    is_table: false,
                },
            })
            .unwrap();
        }
        let mut seen: Vec<u64> = (0..50).map(|_| conn.recv().unwrap().request_id).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        srv.join().unwrap();
    }
}
