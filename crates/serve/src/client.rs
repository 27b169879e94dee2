//! A small blocking client for the daemon's wire protocol.
//!
//! Used by `megh client`, the integration tests and the acceptance
//! benchmark. One request per call; responses are returned both parsed
//! ([`Client::request`]) and as the raw response line
//! ([`Client::request_raw`]) — the crash-recovery smoke test diffs raw
//! bytes across a daemon restart.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

use crate::daemon::{Listen, ServeError};
use crate::wire::{Request, Response};

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// One connection to a running daemon.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Client {
    /// Connects to a daemon with no deadline (blocking I/O).
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket error.
    pub fn connect(listen: &Listen) -> io::Result<Self> {
        Self::connect_timeout(listen, None)
    }

    /// Connects to a daemon; `Some(timeout)` bounds the TCP connect
    /// *and* every subsequent read/write, so a wedged daemon surfaces
    /// as `WouldBlock`/`TimedOut` instead of hanging the caller (the
    /// ci.sh serve smoke stage relies on this).
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket error, including timeouts.
    pub fn connect_timeout(listen: &Listen, timeout: Option<Duration>) -> io::Result<Self> {
        let stream = match listen {
            Listen::Tcp(addr) => {
                let s = match timeout {
                    None => TcpStream::connect(addr.as_str())?,
                    Some(t) => {
                        // connect_timeout wants a resolved SocketAddr;
                        // try each resolution until one answers.
                        let mut last = io::Error::other(format!("{addr}: no addresses resolved"));
                        let mut found = None;
                        for sa in addr.as_str().to_socket_addrs()? {
                            match TcpStream::connect_timeout(&sa, t) {
                                Ok(s) => {
                                    found = Some(s);
                                    break;
                                }
                                Err(e) => last = e,
                            }
                        }
                        match found {
                            Some(s) => s,
                            None => return Err(last),
                        }
                    }
                };
                // See the server side: one-line round trips need Nagle off.
                s.set_nodelay(true)?;
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)?;
                Stream::Tcp(s)
            }
            #[cfg(unix)]
            Listen::Unix(path) => {
                // Unix connects are local and effectively instant; the
                // deadline matters for reads against a wedged daemon.
                let s = UnixStream::connect(path)?;
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)?;
                Stream::Unix(s)
            }
        };
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
        })
    }

    /// Connects, retrying up to `attempts` times `delay` apart while the
    /// daemon is still starting up. `timeout` is a per-attempt connect
    /// deadline that also becomes the connection's read/write timeout;
    /// `None` waits indefinitely.
    ///
    /// # Errors
    ///
    /// Returns the last connection error once `attempts` are exhausted.
    pub fn connect_retry_timeout(
        listen: &Listen,
        attempts: u32,
        delay: Duration,
        timeout: Option<Duration>,
    ) -> io::Result<Self> {
        let mut last = io::Error::other("no connection attempts made");
        for _ in 0..attempts.max(1) {
            match Self::connect_timeout(listen, timeout) {
                Ok(client) => return Ok(client),
                Err(e) => last = e,
            }
            std::thread::sleep(delay);
        }
        Err(last)
    }

    /// Sends one request and returns the raw response line (without the
    /// trailing newline).
    ///
    /// # Errors
    ///
    /// Fails on socket errors or if the daemon closed the connection.
    pub fn request_raw(&mut self, request: &Request) -> Result<String, ServeError> {
        let json = serde_json::to_string(request)
            .map_err(|e| ServeError::Protocol(format!("request serialization failed: {e}")))?;
        writeln!(self.writer, "{json}")?;
        self.writer.flush()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ServeError::Protocol(
                "daemon closed the connection".to_string(),
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Sends one request and parses the response.
    ///
    /// # Errors
    ///
    /// Fails on socket errors or unparsable responses.
    pub fn request(&mut self, request: &Request) -> Result<Response, ServeError> {
        let line = self.request_raw(request)?;
        serde_json::from_str(&line)
            .map_err(|e| ServeError::Protocol(format!("bad response {line:?}: {e}")))
    }

    /// Convenience: a seeded decide.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn decide(&mut self, seed: u64) -> Result<Response, ServeError> {
        self.request(&Request::Decide { seed })
    }

    /// Convenience: enqueue one observed `(action, cost)` update.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn observe(&mut self, action: usize, cost: f64) -> Result<Response, ServeError> {
        self.request(&Request::Observe { action, cost })
    }

    /// Convenience: barrier until all prior observes are learned.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn sync(&mut self) -> Result<Response, ServeError> {
        self.request(&Request::Sync)
    }

    /// Convenience: force a checkpoint.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn checkpoint(&mut self) -> Result<Response, ServeError> {
        self.request(&Request::Checkpoint)
    }

    /// Convenience: checkpoint and stop the daemon.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn shutdown(&mut self) -> Result<Response, ServeError> {
        self.request(&Request::Shutdown)
    }
}
