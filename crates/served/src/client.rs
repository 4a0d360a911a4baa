//! A small blocking client for the wire protocol — the shared plumbing
//! of the load generator, the smoke tests, and the bench harness.

use crate::protocol::{
    self, DecodedFrame, Encoding, ErrorKind, Payload, Request, Response, STATS_END,
};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Everything a request can fail with on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// The server sent something the protocol cannot parse.
    Protocol(String),
    /// The server answered `ERR`.
    Server {
        /// Machine-readable failure class.
        kind: ErrorKind,
        /// Server-provided detail.
        message: String,
    },
    /// The server refused the connection (`BUSY` with a reason: its
    /// connection cap is reached) and closed it.
    Refused(String),
    /// The server stayed `BUSY` through every retry.
    StillBusy {
        /// How many attempts were made.
        attempts: u32,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::Protocol(m) => write!(f, "protocol error: {m}"),
            Self::Server { kind, message } => write!(f, "server error ({kind}): {message}"),
            Self::Refused(reason) => write!(f, "connection refused: {reason}"),
            Self::StillBusy { attempts } => {
                write!(f, "server still busy after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// One blocking connection to a decode server.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Returns the connect error untouched.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Connects, retrying for up to `patience` while the server comes
    /// up — the CI workflow races server start against the load
    /// generator, and this absorbs the race.
    ///
    /// # Errors
    ///
    /// Returns the final connect error once patience runs out.
    pub fn connect_retrying(
        addr: impl ToSocketAddrs + Copy,
        patience: Duration,
    ) -> io::Result<Self> {
        let deadline = Instant::now() + patience;
        loop {
            match Self::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return String::from_utf8(line[..line.len() - 1].to_vec())
                    .map_err(|_| ClientError::Protocol("response is not UTF-8".into()));
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                k => self.buf.extend_from_slice(&chunk[..k]),
            }
        }
    }

    /// Sends one raw request line and parses the response (reading the
    /// multi-line body of a `STATS` reply). Exposed for tests that
    /// need to send malformed lines.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] or [`ClientError::Protocol`]; an
    /// `ERR` response is returned as a [`Response`], not an error.
    pub fn raw_request(&mut self, line: &str) -> Result<Response, ClientError> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        let first = self.read_line()?;
        if first == "STATS" {
            let mut text = first;
            loop {
                let line = self.read_line()?;
                text.push('\n');
                text.push_str(&line);
                if line == STATS_END {
                    break;
                }
            }
            return protocol::parse_response(&text)
                .map_err(|e| ClientError::Protocol(e.to_string()));
        }
        protocol::parse_response(&first).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let resp = self.raw_request(&protocol::render_request(req))?;
        match resp {
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            Response::Busy {
                reason: Some(reason),
                ..
            } => Err(ClientError::Refused(reason)),
            other => Ok(other),
        }
    }

    /// Sends one `DECODE` and returns the raw response — `Decoded` or
    /// `Busy`, without retrying.
    ///
    /// # Errors
    ///
    /// `ERR` responses become [`ClientError::Server`], and a refused
    /// connection [`ClientError::Refused`].
    pub fn decode_llr8_once(
        &mut self,
        spec: &str,
        llrs: &[i8],
        encoding: Encoding,
    ) -> Result<Response, ClientError> {
        self.request(&Request::Decode {
            spec: spec.to_string(),
            payload: Payload::Llr8(llrs.to_vec()),
            encoding,
        })
    }

    fn decode_retrying(
        &mut self,
        spec: &str,
        payload: Payload,
        encoding: Encoding,
    ) -> Result<DecodedFrame, ClientError> {
        const MAX_ATTEMPTS: u32 = 200;
        for attempt in 1..=MAX_ATTEMPTS {
            let resp = self.request(&Request::Decode {
                spec: spec.to_string(),
                payload: payload.clone(),
                encoding,
            })?;
            match resp {
                Response::Decoded(frame) => return Ok(frame),
                Response::Busy { retry_after_us, .. } => {
                    if attempt == MAX_ATTEMPTS {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(retry_after_us.min(1_000_000)));
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected response to DECODE: {other:?}"
                    )))
                }
            }
        }
        Err(ClientError::StillBusy {
            attempts: MAX_ATTEMPTS,
        })
    }

    /// Decodes one soft frame (`llr8` payload), honoring `BUSY`
    /// backoff hints until the frame is accepted.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for `ERR` responses,
    /// [`ClientError::StillBusy`] if backpressure never clears.
    pub fn decode_llr8(
        &mut self,
        spec: &str,
        llrs: &[i8],
        encoding: Encoding,
    ) -> Result<DecodedFrame, ClientError> {
        self.decode_retrying(spec, Payload::Llr8(llrs.to_vec()), encoding)
    }

    /// Decodes one hard-decision frame (`bits` payload, packed
    /// MSB-first), honoring `BUSY` backoff hints.
    ///
    /// # Errors
    ///
    /// As for [`decode_llr8`](Self::decode_llr8).
    pub fn decode_bits(
        &mut self,
        spec: &str,
        packed: &[u8],
        encoding: Encoding,
    ) -> Result<DecodedFrame, ClientError> {
        self.decode_retrying(spec, Payload::Bits(packed.to_vec()), encoding)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Fails if the reply is anything but `PONG`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to PING: {other:?}"
            ))),
        }
    }

    /// Fetches the plaintext metrics body.
    ///
    /// # Errors
    ///
    /// Fails if the reply is not a `STATS` body.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(body) => Ok(body),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to STATS: {other:?}"
            ))),
        }
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Fails if the reply is anything but `BYE`.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to SHUTDOWN: {other:?}"
            ))),
        }
    }
}
