//! Loopback load generator for the socket-edge soak tests.
//!
//! The soak wants ≥10k concurrent connections against one
//! [`Edge`](mobisense_edge::Edge).
//! Holding both ends of 10k loopback sockets in one process would blow
//! the fd budget, so the client side lives in a few of these child
//! processes, each holding a slice of the connections and
//! lock-stepping with the parent over stdin/stdout:
//!
//! ```text
//! edge_load <addr> <n_conns> <frames_per_conn> <client_base>
//!   connect all            → print "ready"
//!   stdin "go"             → write every stream, half-close,
//!                            read each socket to EOF (server done)
//!                          → print "done", exit
//! ```
//!
//! One connection per client id (`client_base + i`), frames in seq
//! order — the ordering contract the edge's determinism rests on.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};

use mobisense_serve::wire::ObsFrame;

fn stream_bytes(client_id: u32, frames: u32) -> Vec<u8> {
    let mut bytes = Vec::new();
    for seq in 0..frames {
        ObsFrame {
            client_id,
            seq,
            at: 1_000_000 * u64::from(seq),
            distance_m: 2.0 + f64::from(client_id % 7),
            digest: vec![0.5; 8],
        }
        .encode_into(&mut bytes);
    }
    bytes
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: edge_load <addr> <n_conns> <frames_per_conn> <client_base>";
    let addr = args.get(1).expect(usage).clone();
    let n_conns: u32 = args.get(2).expect(usage).parse().expect("n_conns");
    let frames_per_conn: u32 = args.get(3).expect(usage).parse().expect("frames_per_conn");
    let client_base: u32 = args.get(4).expect(usage).parse().expect("client_base");

    let mut conns: Vec<TcpStream> = Vec::with_capacity(n_conns as usize);
    for _ in 0..n_conns {
        let sock = TcpStream::connect(&addr).expect("connect");
        conns.push(sock);
    }
    println!("ready");
    std::io::stdout().flush().expect("flush");

    let mut line = String::new();
    std::io::stdin().read_line(&mut line).expect("stdin");
    assert_eq!(line.trim(), "go", "unexpected command");

    for (i, sock) in conns.iter_mut().enumerate() {
        let bytes = stream_bytes(client_base + i as u32, frames_per_conn);
        sock.write_all(&bytes).expect("write stream");
        sock.shutdown(Shutdown::Write).expect("half-close");
    }
    // The server closes each connection once it has drained it;
    // reading to EOF here means "the edge consumed my slice".
    let mut sink = [0u8; 64];
    for sock in conns.iter_mut() {
        loop {
            match sock.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break, // reset also means the server is done with us
            }
        }
    }
    println!("done");
    std::io::stdout().flush().expect("flush");
}
