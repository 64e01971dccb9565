//! Transport abstraction: one [`Endpoint`] type covering Unix-domain
//! sockets (the default, `HFS_SOCK`) and TCP (the fallback, `HFS_ADDR`),
//! with [`Listener`]/[`Stream`] wrappers so the rest of the crate is
//! transport-agnostic.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// Unix-domain socket path environment variable (`HFS_SOCK`).
pub const ENV_SOCK: &str = "HFS_SOCK";
/// TCP address environment variable (`HFS_ADDR`), e.g. `127.0.0.1:7070`.
pub const ENV_ADDR: &str = "HFS_ADDR";

/// Where a server listens or a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path.
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP address in `host:port` form.
    Tcp(String),
}

impl Endpoint {
    /// Resolves the endpoint from the environment: `HFS_SOCK` wins (on
    /// Unix), then `HFS_ADDR`; `None` if neither is set.
    pub fn from_env() -> Option<Endpoint> {
        #[cfg(unix)]
        if let Some(path) = hfs_sim::env_path(ENV_SOCK) {
            return Some(Endpoint::Unix(path));
        }
        std::env::var(ENV_ADDR)
            .ok()
            .filter(|v| !v.is_empty())
            .map(Endpoint::Tcp)
    }

    /// Binds a listener here. For Unix sockets a stale socket file from
    /// a dead server is removed first, so restarts don't need manual
    /// cleanup.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(&self) -> io::Result<Listener> {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                if path.exists() && UnixStream::connect(path).is_err() {
                    hfs_obs::debug(
                        "net",
                        "stale_socket_removed",
                        &[("path", path.display().to_string().into())],
                    );
                    let _ = std::fs::remove_file(path);
                }
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
        }
    }

    /// Connects a client stream to this endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            Endpoint::Tcp(addr) => Ok(Stream::Tcp(TcpStream::connect(addr.as_str())?)),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A bound server socket.
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Switches the listener between blocking and non-blocking accepts.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `set_nonblocking` failure.
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(on),
            Listener::Tcp(l) => l.set_nonblocking(on),
        }
    }

    /// Accepts one connection. The accepted stream is always switched
    /// back to blocking mode, regardless of the listener's mode.
    ///
    /// # Errors
    ///
    /// Propagates accept failures (including `WouldBlock` when
    /// non-blocking).
    pub fn accept(&self) -> io::Result<Stream> {
        let stream = match self {
            #[cfg(unix)]
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
        };
        stream.set_nonblocking(false)?;
        Ok(stream)
    }

    /// The bound TCP address, if this is a TCP listener — lets tests
    /// bind port 0 and discover the real port.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            #[cfg(unix)]
            Listener::Unix(_) => None,
            Listener::Tcp(l) => l.local_addr().ok(),
        }
    }
}

/// One accepted or connected byte stream.
#[derive(Debug)]
pub enum Stream {
    /// Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Stream {
    /// Clones the stream handle, so one half can read while the other
    /// writes from a different thread.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `try_clone` failure.
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
        }
    }

    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(on),
            Stream::Tcp(s) => s.set_nonblocking(on),
        }
    }

    /// Shuts down both directions, unblocking any reader on the peer.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `shutdown` failure.
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_resolution_prefers_unix_socket() {
        // Avoid touching real process env (tests run in parallel):
        // exercise the endpoint constructors directly instead.
        #[cfg(unix)]
        {
            let e = Endpoint::Unix(PathBuf::from("/tmp/x.sock"));
            assert_eq!(e.to_string(), "unix:/tmp/x.sock");
        }
        let t = Endpoint::Tcp("127.0.0.1:0".to_string());
        assert_eq!(t.to_string(), "tcp:127.0.0.1:0");
    }

    #[test]
    fn tcp_listener_reports_bound_port() {
        let l = Endpoint::Tcp("127.0.0.1:0".to_string()).bind().unwrap();
        let addr = l.tcp_addr().expect("tcp listener has an address");
        assert_ne!(addr.port(), 0, "port 0 resolves to a real port");
    }

    #[cfg(unix)]
    #[test]
    fn unix_bind_removes_stale_socket_file() {
        let path = std::env::temp_dir().join(format!("hfs-net-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let e = Endpoint::Unix(path.clone());
        // Bind once, drop the listener: the socket file stays behind,
        // exactly what a crashed server leaves.
        drop(e.bind().unwrap());
        assert!(path.exists(), "socket file lingers after drop");
        // A fresh bind must succeed anyway.
        drop(e.bind().expect("rebinding over a stale socket works"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bytes_round_trip_over_tcp() {
        let l = Endpoint::Tcp("127.0.0.1:0".to_string()).bind().unwrap();
        let addr = l.tcp_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut s = l.accept().unwrap();
            let mut buf = [0u8; 5];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
        });
        let mut c = Endpoint::Tcp(addr.to_string()).connect().unwrap();
        c.write_all(b"hello").unwrap();
        let mut back = [0u8; 5];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"hello");
        t.join().unwrap();
    }
}
