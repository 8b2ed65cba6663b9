//! Blocking stream transports: TCP and (on Unix) Unix-domain sockets.
//!
//! Endpoints are spelled `tcp:HOST:PORT` or `unix:/path/to.sock`;
//! [`WireListener`] / [`WireStream`] erase the difference so the
//! server and router code is transport-agnostic. Everything is
//! std-only blocking I/O — reader threads use OS read timeouts
//! ([`WireStream::set_read_timeout`]) instead of an async runtime.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

use crate::error::WireError;

/// A parsed listen/connect address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// `tcp:HOST:PORT`.
    Tcp(String),
    /// `unix:/path/to.sock` (Unix-domain socket).
    Unix(PathBuf),
}

impl Endpoint {
    /// Parse `tcp:HOST:PORT` or `unix:/path`. A bare `HOST:PORT`
    /// (containing `:` but no known scheme) is taken as TCP.
    pub fn parse(s: &str) -> Result<Endpoint, WireError> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            if rest.is_empty() {
                return Err(WireError::InvalidPayload("empty tcp endpoint"));
            }
            return Ok(Endpoint::Tcp(rest.to_string()));
        }
        if let Some(rest) = s.strip_prefix("unix:") {
            if rest.is_empty() {
                return Err(WireError::InvalidPayload("empty unix endpoint"));
            }
            return Ok(Endpoint::Unix(PathBuf::from(rest)));
        }
        if s.contains(':') {
            return Ok(Endpoint::Tcp(s.to_string()));
        }
        Err(WireError::InvalidPayload(
            "endpoint must be tcp:HOST:PORT or unix:/path",
        ))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A bound listener on either transport.
#[derive(Debug)]
pub enum WireListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener (plus its socket path, for `Display`).
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl WireListener {
    /// Bind `endpoint`. A stale Unix socket file left by a previous
    /// (crashed) process is removed before binding.
    pub fn bind(endpoint: &Endpoint) -> io::Result<WireListener> {
        match endpoint {
            Endpoint::Tcp(addr) => Ok(WireListener::Tcp(TcpListener::bind(addr.as_str())?)),
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Ok(WireListener::Unix(UnixListener::bind(path)?, path.clone()))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets unavailable on this platform",
            )),
        }
    }

    /// Accept one connection (blocking).
    pub fn accept(&self) -> io::Result<WireStream> {
        match self {
            WireListener::Tcp(l) => l.accept().map(|(s, _)| WireStream::Tcp(s)),
            #[cfg(unix)]
            WireListener::Unix(l, _) => l.accept().map(|(s, _)| WireStream::Unix(s)),
        }
    }

    /// The endpoint this listener is bound to (TCP reports the actual
    /// local address, useful after binding port 0).
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            WireListener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            WireListener::Unix(_, path) => Ok(Endpoint::Unix(path.clone())),
        }
    }
}

/// A connected stream on either transport.
#[derive(Debug)]
pub enum WireStream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl WireStream {
    /// Connect to `endpoint` (blocking).
    pub fn connect(endpoint: &Endpoint) -> io::Result<WireStream> {
        match endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(WireStream::Tcp),
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path).map(WireStream::Unix),
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets unavailable on this platform",
            )),
        }
    }

    /// A second handle on the same connection (reader/writer split).
    pub fn try_clone(&self) -> io::Result<WireStream> {
        match self {
            WireStream::Tcp(s) => s.try_clone().map(WireStream::Tcp),
            #[cfg(unix)]
            WireStream::Unix(s) => s.try_clone().map(WireStream::Unix),
        }
    }

    /// Bound the time a blocking read may wait.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            WireStream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Disable Nagle batching on TCP (no-op for Unix sockets); frame
    /// latency matters more than syscall count here.
    pub fn set_nodelay(&self) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.set_nodelay(true),
            #[cfg(unix)]
            WireStream::Unix(_) => Ok(()),
        }
    }

    /// Shut down both directions, waking any blocked reader on the
    /// other handle. Errors are ignored: the peer may already be gone.
    pub fn shutdown_both(&self) {
        match self {
            WireStream::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            #[cfg(unix)]
            WireStream::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            WireStream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:9000").unwrap(),
            Endpoint::Tcp("127.0.0.1:9000".to_string())
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:9000").unwrap(),
            Endpoint::Tcp("127.0.0.1:9000".to_string())
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert!(Endpoint::parse("nonsense").is_err());
        assert!(Endpoint::parse("tcp:").is_err());
        assert!(Endpoint::parse("unix:").is_err());
    }

    #[test]
    fn endpoint_display_round_trips() {
        for s in ["tcp:127.0.0.1:9000", "unix:/tmp/x.sock"] {
            assert_eq!(Endpoint::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn tcp_loopback_connects_and_clones() {
        let listener = WireListener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let ep = listener.local_endpoint().unwrap();
        let handle = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut buf = [0u8; 5];
            conn.read_exact(&mut buf).unwrap();
            conn.write_all(&buf).unwrap();
        });
        let mut client = WireStream::connect(&ep).unwrap();
        client.set_nodelay().unwrap();
        let mut echo_rx = client.try_clone().unwrap();
        client.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        echo_rx.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        handle.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn unix_loopback_rebinds_over_stale_socket() {
        let dir = std::env::temp_dir().join(format!("sleuth-wire-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sock");
        let ep = Endpoint::Unix(path.clone());
        let first = WireListener::bind(&ep).unwrap();
        drop(first); // leaves the socket file behind
        let listener = WireListener::bind(&ep).unwrap();
        let handle = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut buf = [0u8; 2];
            conn.read_exact(&mut buf).unwrap();
            buf
        });
        let mut client = WireStream::connect(&ep).unwrap();
        client.write_all(b"ok").unwrap();
        assert_eq!(&handle.join().unwrap(), b"ok");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
