//! A minimal well-behaved client for tests, benchmarks, and the chaos
//! driver: blocking frame I/O with a generous read timeout.

use crate::proto::{
    decode_response, encode_request, read_frame, write_frame, CounterSnapshot, Op, Request,
    Response, Status,
};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A connected client.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connect to `addr` with a `timeout_ms` read/write timeout.
    pub fn connect(addr: SocketAddr, timeout_ms: u64) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(timeout_ms)))?;
        stream.set_write_timeout(Some(Duration::from_millis(timeout_ms)))?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, next_id: 1 })
    }

    /// Pipeline one request; returns its id.
    pub fn send(&mut self, op: Op) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let body = encode_request(&Request { id, op });
        write_frame(&mut self.stream, &body)?;
        Ok(id)
    }

    /// Read the next response frame.
    pub fn recv(&mut self) -> io::Result<Response> {
        match read_frame(&mut self.stream)? {
            Some(body) => decode_response(&body)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            None => Err(io::ErrorKind::UnexpectedEof.into()),
        }
    }

    /// Send one request and wait for its response (no pipelining).
    pub fn call(&mut self, op: Op) -> io::Result<Response> {
        let id = self.send(op)?;
        let resp = self.recv()?;
        if resp.id != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {} for request {id}", resp.id),
            ));
        }
        Ok(resp)
    }

    /// Read the server's counters over the wire (`STATS`).
    pub fn stats(&mut self) -> io::Result<CounterSnapshot> {
        let r = self.call(Op::Stats)?;
        if r.status != Status::Ok {
            return Err(io::Error::other(format!("stats: {:?}", r.status)));
        }
        CounterSnapshot::decode(&r.payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Upsert-then-read health probe; `Ok` when the value round-trips.
    pub fn probe(&mut self, key: u64) -> io::Result<()> {
        let value = key.to_le_bytes().to_vec();
        let r = self.call(Op::Put {
            key,
            value: value.clone(),
        })?;
        if r.status != Status::Ok {
            return Err(io::Error::other(format!("probe put: {:?}", r.status)));
        }
        let r = self.call(Op::Get { key })?;
        if r.status != Status::Ok || r.payload[..8] != value[..] {
            return Err(io::Error::other(format!("probe get: {:?}", r.status)));
        }
        Ok(())
    }
}
