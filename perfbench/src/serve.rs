//! A `lockdoc serve --socket` session driven from the benchmark: the
//! daemon runs on a thread of this process through `lockdoc_cli::run`,
//! one connection runs a closed loop of read queries and a second
//! connection sends one `add` while the loop runs.

use crate::e2e::{Ctx, SERVE_POST, SERVE_PRE};
use crate::inputs::{path_str, SERVE_CMDS};
use lockdoc_platform::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read queries of the closed loop, in round-robin order.
const LOOP_CMDS: [&str; 5] = ["derive", "races", "lint", "order", "status"];

pub struct Session {
    /// Daemon start and first answer.
    pub ready_at: (Instant, Instant),
    /// `add` request sent and answered.
    pub add_at: (Instant, Instant),
    /// Latency of every read query, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Responses that were not `ok`.
    pub errors: u64,
    /// Connections the daemon shed.
    pub shed: u64,
    /// Post-`add` answers that differ from the batch renders.
    pub mismatches: Vec<&'static str>,
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Session {
    pub fn ready_s(&self) -> f64 {
        (self.ready_at.1 - self.ready_at.0).as_secs_f64()
    }
    pub fn add_s(&self) -> f64 {
        (self.add_at.1 - self.add_at.0).as_secs_f64()
    }
}

impl Conn {
    fn open(sock: &Path) -> std::io::Result<Self> {
        let writer = UnixStream::connect(sock)?;
        writer.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn request(&mut self, line: &str) -> Result<Json, String> {
        writeln!(self.writer, "{line}").map_err(|e| e.to_string())?;
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .map_err(|e| e.to_string())?;
        json::parse(resp.trim_end()).map_err(|e| format!("bad response `{resp}`: {e}"))
    }
}

fn query(cmd: &str) -> String {
    Json::obj(vec![("cmd", Json::Str(cmd.to_owned()))]).compact()
}

fn is_ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Runs one session over the corpus in `dir`: `SERVE_PRE` read queries
/// before the `add` is sent and `SERVE_POST` after its response. With
/// `concurrent` the loop keeps querying while the `add` is in flight;
/// otherwise the `add` runs alone between the two query blocks.
pub fn session(dir: &Path, c: &Ctx, concurrent: bool) -> Result<Session, String> {
    let sock = c.sock.as_path();
    let args: Vec<String> = [
        "serve",
        "--dir",
        path_str(dir),
        "--socket",
        path_str(sock),
        "--jobs",
        &c.jobs.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let started = Instant::now();
    let daemon = std::thread::spawn(move || lockdoc_cli::run(&args));
    let out = drive(c, started, concurrent, &daemon);
    if out.is_err() && !daemon.is_finished() {
        // Best effort: stop a daemon the session gave up on, so the
        // join below cannot wait forever.
        if let Ok(mut c) = Conn::open(sock) {
            let _ = c.request(&query("shutdown"));
        }
    }
    let result = daemon
        .join()
        .map_err(|_| "serve thread panicked".to_owned())?
        .map_err(|e| format!("serve: {e}"))?;
    let mut s = out?;
    // "served N connection(s), shed S"
    s.shed = result
        .split("shed ")
        .nth(1)
        .and_then(|t| t.trim().parse().ok())
        .ok_or_else(|| format!("unexpected serve summary `{result}`"))?;
    Ok(s)
}

fn drive(
    c: &Ctx,
    started: Instant,
    concurrent: bool,
    daemon: &std::thread::JoinHandle<lockdoc_cli::Result<String>>,
) -> Result<Session, String> {
    let sock = c.sock.as_path();
    let mut conn = loop {
        match Conn::open(sock) {
            Ok(c) => break c,
            Err(_) if !daemon.is_finished() && started.elapsed() < Duration::from_secs(150) => {
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(e) => return Err(format!("serve never became ready: {e}")),
        }
    };
    let mut s = Session {
        ready_at: (started, started),
        add_at: (started, started),
        latencies_ms: Vec::new(),
        errors: 0,
        shed: 0,
        mismatches: Vec::new(),
    };
    let first = conn.request(&query("status"))?;
    s.ready_at.1 = Instant::now();
    s.errors += u64::from(!is_ok(&first));
    let mut next = 0usize;
    let mut ask = |conn: &mut Conn, s: &mut Session| -> Result<(), String> {
        let t = Instant::now();
        let v = conn.request(&query(LOOP_CMDS[next % LOOP_CMDS.len()]))?;
        s.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        s.errors += u64::from(!is_ok(&v));
        next += 1;
        Ok(())
    };
    for _ in 0..SERVE_PRE {
        ask(&mut conn, &mut s)?;
    }
    let add_line = Json::obj(vec![
        ("cmd", Json::Str("add".into())),
        ("path", Json::Str(path_str(c.inputs.extra()).to_owned())),
    ])
    .compact();
    let added = if concurrent {
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let sock = sock.to_owned();
        let adder = std::thread::spawn(move || {
            let r = Conn::open(&sock)
                .map_err(|e| e.to_string())
                .and_then(|mut c| {
                    let t = Instant::now();
                    let v = c.request(&add_line)?;
                    Ok(((t, Instant::now()), v))
                });
            flag.store(true, Ordering::SeqCst);
            r
        });
        while !done.load(Ordering::SeqCst) {
            ask(&mut conn, &mut s)?;
        }
        adder
            .join()
            .map_err(|_| "add thread panicked".to_owned())??
    } else {
        let t = Instant::now();
        let v = conn.request(&add_line)?;
        ((t, Instant::now()), v)
    };
    s.add_at = added.0;
    if !is_ok(&added.1) {
        s.errors += 1;
    }
    for _ in 0..SERVE_POST {
        ask(&mut conn, &mut s)?;
    }
    for (cmd, want) in SERVE_CMDS.iter().zip(&c.exp.serve) {
        let t = Instant::now();
        let v = conn.request(&query(cmd))?;
        s.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        s.errors += u64::from(!is_ok(&v));
        if v.get("output").and_then(Json::as_str) != Some(want.as_str()) {
            s.mismatches.push(cmd);
        }
    }
    let bye = conn.request(&query("shutdown"))?;
    s.errors += u64::from(!is_ok(&bye));
    Ok(s)
}
