//! Minimal blocking client for the `qwm-serve` protocol, used by the
//! benchmark's load generator (`benchmark/`), the integration tests,
//! and scripting.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One server reply: the status line split into code + text, plus the
/// length-prefixed payload when present.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    /// Status-line text after the code (including any trailing
    /// `len=<n>` token).
    pub head: String,
    pub payload: Option<String>,
}

impl Reply {
    pub fn ok(&self) -> bool {
        self.status == 200
    }

    /// Payload text, or `""` for payload-less replies.
    pub fn body(&self) -> &str {
        self.payload.as_deref().unwrap_or("")
    }
}

/// A blocking protocol connection. Replies are framed by the protocol
/// (one status line, then an exact-length payload), so the reader needs
/// no buffering beyond the current frame.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Maximum time to wait for each reply (`None` blocks forever).
    pub fn set_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    /// Sends a bodyless command line and reads the reply.
    pub fn send(&mut self, line: &str) -> io::Result<Reply> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.read_reply()
    }

    /// Sends a command followed by a raw body. The command line must
    /// already carry the body's byte count (see [`Client::load`] /
    /// [`Client::edit`] for the common cases).
    pub fn send_with_body(&mut self, line: &str, body: &str) -> io::Result<Reply> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.write_all(body.as_bytes())?;
        self.read_reply()
    }

    /// `load <sid> <nbytes>` with the deck text as body.
    pub fn load(&mut self, sid: &str, deck: &str) -> io::Result<Reply> {
        self.send_with_body(&format!("load {sid} {}", deck.len()), deck)
    }

    /// `edit <sid> <nbytes>` with the edit script as body.
    pub fn edit(&mut self, sid: &str, script: &str) -> io::Result<Reply> {
        self.send_with_body(&format!("edit {sid} {}", script.len()), script)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            if self.stream.read(&mut byte)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if byte[0] == b'\n' {
                break;
            }
            line.push(byte[0]);
        }
        Ok(String::from_utf8_lossy(&line)
            .trim_end_matches('\r')
            .to_string())
    }

    fn read_exact_n(&mut self, n: usize) -> io::Result<Vec<u8>> {
        let mut out = vec![0u8; n];
        self.stream.read_exact(&mut out)?;
        Ok(out)
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let line = self.read_line()?;
        let (code, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        let status: u16 = code.parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {line:?}"),
            )
        })?;
        let head = rest.to_string();
        let payload = match head.rsplit(' ').next().and_then(|t| t.strip_prefix("len=")) {
            Some(n) => {
                let n: usize = n.parse().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad len token in {line:?}"),
                    )
                })?;
                let bytes = self.read_exact_n(n)?;
                Some(String::from_utf8_lossy(&bytes).into_owned())
            }
            None => None,
        };
        Ok(Reply {
            status,
            head,
            payload,
        })
    }
}
