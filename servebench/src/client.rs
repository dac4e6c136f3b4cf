//! A blocking client connection speaking either wire framing: line-delimited
//! JSON over TCP, or HTTP/1.1 with keep-alive.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Which framing a connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framer {
    /// One JSON request per line, one JSON response per line.
    Tcp,
    /// `POST /v1/<op>` with a JSON body; the response body is the JSON line.
    Http,
}

/// One open connection.
pub struct Conn {
    framer: Framer,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A completed exchange: the response line (without its newline) and the
/// bytes that crossed the socket each way.
pub struct Reply {
    /// The protocol response line.
    pub line: String,
    /// Bytes sent, framing included.
    pub sent: usize,
    /// Bytes received, framing included.
    pub received: usize,
}

fn broken(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl Conn {
    /// Connects with a generous read timeout, so a wedged server fails the
    /// run instead of hanging it.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(framer: Framer, addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            framer,
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line (to `path` under HTTP) and reads the complete
    /// response.
    ///
    /// # Errors
    ///
    /// I/O failures, a closed connection, or malformed HTTP framing.
    pub fn call(&mut self, path: &str, line: &str) -> io::Result<Reply> {
        match self.framer {
            Framer::Tcp => {
                let mut out = Vec::with_capacity(line.len() + 1);
                out.extend_from_slice(line.as_bytes());
                out.push(b'\n');
                self.writer.write_all(&out)?;
                let mut reply = String::new();
                let received = self.reader.read_line(&mut reply)?;
                if received == 0 || !reply.ends_with('\n') {
                    return Err(broken("server closed the connection mid-response"));
                }
                reply.pop();
                Ok(Reply {
                    line: reply,
                    sent: out.len(),
                    received,
                })
            }
            Framer::Http => {
                let head = format!(
                    "POST {path} HTTP/1.1\r\nHost: servebench\r\nContent-Length: {}\r\n\r\n",
                    line.len()
                );
                let mut out = Vec::with_capacity(head.len() + line.len());
                out.extend_from_slice(head.as_bytes());
                out.extend_from_slice(line.as_bytes());
                self.writer.write_all(&out)?;
                let mut received = 0;
                let mut status = String::new();
                received += self.reader.read_line(&mut status)?;
                if !status.starts_with("HTTP/1.1 ") {
                    return Err(broken("malformed HTTP status line"));
                }
                let mut content_length = None;
                loop {
                    let mut header = String::new();
                    let n = self.reader.read_line(&mut header)?;
                    if n == 0 {
                        return Err(broken("server closed the connection mid-headers"));
                    }
                    received += n;
                    let header = header.trim_end();
                    if header.is_empty() {
                        break;
                    }
                    if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                        content_length = v.trim().parse::<usize>().ok();
                    }
                }
                let length = content_length.ok_or_else(|| broken("response has no length"))?;
                let mut body = vec![0u8; length];
                self.reader.read_exact(&mut body)?;
                received += length;
                let mut text = String::from_utf8(body).map_err(|_| broken("body is not UTF-8"))?;
                if text.ends_with('\n') {
                    text.pop();
                }
                Ok(Reply {
                    line: text,
                    sent: out.len(),
                    received,
                })
            }
        }
    }
}
