//! The `serve-mix` workload: an `xp serve` daemon driven over loopback
//! by a closed loop of clients.
//!
//! The daemon is this binary re-executed in `daemon` mode, wired exactly
//! as `xp serve --workers 2 --threads 1 --cache-dir <fresh dir>`. Each
//! client posts a TOML spec to `POST /jobs`, blocks on
//! `GET /jobs/<id>/events` until the job ends, reads the job record and
//! fetches `report.json`, which must equal the in-process `run_scenario`
//! rendering of the same spec. Every job has a deadline; a job that
//! misses it (a hung worker, a dead daemon) counts as failed, and a
//! daemon that does not drain after `POST /shutdown` is killed.

use crate::inproc::{self, LayerTimes};
use crate::layers::{self, Counts};
use crate::sys::{cpu_s, now, peak_rss_mb, since};
use crate::trace::{self, Tracer};
use crate::verify;
use crate::{median, mix, quantile, seeded, Opts, RunResult};
use dcn_scenarios::diff::{parse_json, Json};
use dcn_scenarios::run_scenario;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Builtins the schedule draws from: small packet and flow sweeps.
const POOL: [&str; 3] = ["incast-battle", "fig9to11", "fig7-flow"];
/// Closed-loop clients of an untraced pass.
const CLIENTS: usize = 2;
/// Jobs each client submits per pass.
const JOBS_PER_CLIENT: usize = 60;
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Per-job deadline, submit to verified report.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a stopping daemon may take to drain before it is killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Daemon start-ups timed per run for `setup_s`, at least.
const MIN_SETUPS: usize = 5;

/// One scheduled submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Builtin the spec comes from.
    pub builtin: &'static str,
    /// Seed grid of the submitted spec.
    pub seed: u64,
    /// Whether the same (spec, seed) already completed earlier in this
    /// client's loop, so the job is served from the cache.
    pub repeat: bool,
}

/// The submissions of each client. Every third job repeats one of the
/// client's earlier fresh jobs, drawn by the seed. Fresh jobs take the
/// pool's builtins in turn, so every run offers the same mix, and get a
/// seed no other job of the run uses.
pub fn schedule(seed: u64, clients: usize, per_client: usize) -> Vec<Vec<Job>> {
    let mut state = mix(seed ^ 0x5e7e_5e7e);
    let mut next = || {
        state = mix(state);
        state
    };
    let base = seed.wrapping_mul(1_000_003) % 1_000_000_000;
    (0..clients)
        .map(|c| {
            let mut jobs: Vec<Job> = Vec::with_capacity(per_client);
            for j in 0..per_client {
                if j % 3 == 2 {
                    let fresh: Vec<Job> = jobs.iter().filter(|x| !x.repeat).copied().collect();
                    let pick = fresh[(next() % fresh.len() as u64) as usize];
                    jobs.push(Job {
                        repeat: true,
                        ..pick
                    });
                } else {
                    let fresh = jobs.iter().filter(|x| !x.repeat).count();
                    jobs.push(Job {
                        builtin: POOL[(c + fresh) % POOL.len()],
                        seed: base + (c * per_client + j) as u64,
                        repeat: false,
                    });
                }
            }
            jobs
        })
        .collect()
}

/// The daemon: this binary's `daemon` mode. Prints its bound address on
/// stdout, then serves until `POST /shutdown` has drained it.
pub fn daemon_main(cache_dir: &Path) -> Result<(), String> {
    let cfg = dcn_serve::ServeConfig {
        workers: WORKERS,
        queue_cap: 64,
        run: dcn_runner::serve_run_fn(Some(cache_dir.to_path_buf()), 1),
        cache_stat: Some(dcn_runner::serve_stat_fn(cache_dir.to_path_buf())),
    };
    let server = dcn_serve::Server::bind("127.0.0.1:0", cfg)?;
    let mut out = std::io::stdout();
    writeln!(out, "{}", server.local_addr())
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot announce the daemon address: {e}"))?;
    server.serve()
}

/// A running daemon process.
struct Daemon {
    child: Child,
    addr: String,
    cache: PathBuf,
    stopped: bool,
}

impl Drop for Daemon {
    /// A daemon left behind by an early return or a panic is killed.
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = std::fs::remove_dir_all(&self.cache);
        }
    }
}

impl Daemon {
    /// Start a daemon over a fresh cache directory and wait until it
    /// answers a request.
    fn start(exe: &Path, cache: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&cache);
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg(&cache)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let mut daemon = Daemon {
            child,
            addr: line.trim().to_string(),
            cache,
            stopped: false,
        };
        if read.is_err() || daemon.addr.is_empty() {
            daemon.stop();
            return Err("the daemon did not announce its address".into());
        }
        let deadline = now() + JOB_TIMEOUT;
        loop {
            match request(&daemon.addr, "GET", "/jobs", b"", deadline) {
                Ok((200, _)) => return Ok(daemon),
                _ if now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                _ => {
                    daemon.stop();
                    return Err("the daemon never accepted a request".into());
                }
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// `POST /shutdown`, then wait for the drain; kill it if it hangs.
    /// Returns whether it stopped on its own.
    fn stop(&mut self) -> bool {
        let _ = request(&self.addr, "POST", "/shutdown", b"", now() + DRAIN_TIMEOUT);
        let deadline = now() + DRAIN_TIMEOUT;
        let clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break false;
                }
            }
        };
        let _ = std::fs::remove_dir_all(&self.cache);
        self.stopped = true;
        clean
    }
}

/// One HTTP exchange (`Connection: close`) that must finish by
/// `deadline`. Returns status and body.
fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    deadline: Instant,
) -> Result<(u16, Vec<u8>), String> {
    let left = || {
        deadline
            .saturating_duration_since(now())
            .max(Duration::from_millis(1))
    };
    let sock: SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad daemon address {addr:?}: {e}"))?;
    let mut stream =
        TcpStream::connect_timeout(&sock, left()).map_err(|e| format!("connect: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.set_write_timeout(Some(left()));
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("{method} {path}: write: {e}"))?;
    let mut raw = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        if now() >= deadline {
            return Err(format!("{method} {path}: timed out"));
        }
        let _ = stream.set_read_timeout(Some(left()));
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("{method} {path}: read: {e}")),
        }
    }
    let sep = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: response has no header terminator"))?;
    let status = std::str::from_utf8(&raw[..sep])
        .ok()
        .and_then(|h| h.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("{method} {path}: malformed status line"))?;
    Ok((status, raw[sep + 4..].to_vec()))
}

/// What a client saw of one job.
#[derive(Clone, Debug, Default)]
struct Record {
    latency_ms: f64,
    submit_ms: f64,
    wait_ms: f64,
    fetch_ms: f64,
    exec_ms: f64,
    hits: u64,
    misses: u64,
    rejected: bool,
    timed_out: bool,
    error: Option<String>,
}

impl Record {
    /// Served wholly from the daemon's cache.
    fn is_hit(&self) -> bool {
        self.error.is_none() && self.misses == 0 && self.hits > 0
    }
}

/// A field of a one-line JSON record.
fn field(rec: &Json, key: &str) -> Option<Json> {
    match rec {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone()),
        _ => None,
    }
}

fn int_field(rec: &Json, key: &str) -> Result<u64, String> {
    match field(rec, key) {
        Some(Json::Int(n)) => u64::try_from(n).map_err(|_| format!("{key} out of range")),
        _ => Err(format!("job record has no integer {key}")),
    }
}

fn num_field(rec: &Json, key: &str) -> Result<f64, String> {
    match field(rec, key) {
        Some(Json::Num(x)) => Ok(x),
        Some(Json::Int(n)) => Ok(n as f64),
        _ => Err(format!("job record has no number {key}")),
    }
}

fn parse_record(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "job record is not UTF-8".to_string())?;
    parse_json(text.trim())
}

/// Submit one job and follow it to a verified report within `timeout`.
fn run_job(
    addr: &str,
    job: &Job,
    reference: &Reference,
    tracer: Option<&Tracer>,
    timeout: Duration,
) -> Record {
    let span = |name: &str, f: &mut dyn FnMut() -> Result<(u16, Vec<u8>), String>| match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    };
    let mut rec = Record::default();
    let t0 = now();
    let deadline = t0 + timeout;
    let outcome = (|| -> Result<(), String> {
        let ts = now();
        let (status, body) = span("serve.submit", &mut || {
            request(addr, "POST", "/jobs", reference.toml.as_bytes(), deadline)
        })?;
        rec.submit_ms = since(ts) * 1e3;
        if status != 201 {
            rec.rejected = true;
            return Err(format!("POST /jobs answered {status}"));
        }
        let id = int_field(&parse_record(&body)?, "id")?;
        let tw = now();
        let (status, _) = span("serve.wait", &mut || {
            request(addr, "GET", &format!("/jobs/{id}/events"), b"", deadline)
        })?;
        rec.wait_ms = since(tw) * 1e3;
        if status != 200 {
            return Err(format!("GET /jobs/{id}/events answered {status}"));
        }
        let tf = now();
        let (status, body) = span("serve.fetch", &mut || {
            request(addr, "GET", &format!("/jobs/{id}"), b"", deadline)
        })?;
        let snap = parse_record(&body)?;
        if status != 200 || field(&snap, "state") != Some(Json::Str("done".into())) {
            return Err(format!(
                "job {id} did not finish: {}",
                String::from_utf8_lossy(&body).trim()
            ));
        }
        rec.exec_ms = num_field(&snap, "wall_ms")?;
        rec.hits = int_field(&snap, "hits")?;
        rec.misses = int_field(&snap, "misses")?;
        let (status, report) = span("serve.fetch", &mut || {
            request(
                addr,
                "GET",
                &format!("/jobs/{id}/report.json"),
                b"",
                deadline,
            )
        })?;
        rec.fetch_ms = since(tf) * 1e3;
        if status != 200 {
            return Err(format!("GET /jobs/{id}/report.json answered {status}"));
        }
        let check = || {
            let report = String::from_utf8_lossy(&report);
            verify::same(
                &format!("{} seed {}", job.builtin, job.seed),
                &report,
                &reference.json,
            )
        };
        match tracer {
            Some(t) => t.span("harness.verify", check),
            None => check(),
        }
    })();
    rec.latency_ms = since(t0) * 1e3;
    rec.timed_out = outcome.is_err() && now() >= deadline;
    rec.error = outcome.err();
    rec
}

/// The expected report of one (builtin, seed) and the TOML submitted.
struct Reference {
    toml: String,
    json: String,
}

type References = BTreeMap<(&'static str, u64), Reference>;

/// Every distinct (builtin, seed) of the schedule, rendered in-process
/// by `run_scenario`.
fn references(sched: &[Vec<Job>]) -> Result<References, String> {
    let mut refs = References::new();
    for job in sched.iter().flatten() {
        if refs.contains_key(&(job.builtin, job.seed)) {
            continue;
        }
        let spec = seeded(job.builtin, job.seed);
        let json = run_scenario(&spec, 1)?.to_json();
        refs.insert(
            (job.builtin, job.seed),
            Reference {
                toml: spec.to_toml(),
                json,
            },
        );
    }
    Ok(refs)
}

/// What one pass measured.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    records: Vec<Record>,
}

/// Start a daemon, run the clients' schedules against it (each client
/// on its own thread), stop the daemon.
fn pass(
    exe: &Path,
    tag: &str,
    sched: &[Vec<Job>],
    refs: &References,
    tracer: Option<&Tracer>,
) -> Result<Pass, String> {
    let t0 = now();
    let mut daemon = Daemon::start(exe, layers::scratch_dir(tag))?;
    let setup_s = since(t0);
    let pid = daemon.pid();
    let cpu0 = cpu_s(&pid).unwrap_or(0.0);
    let t1 = now();
    let addr = daemon.addr.clone();
    // After a timeout the daemon is presumed stuck: the client's
    // remaining jobs count as failed without being sent, so a hung
    // worker costs one deadline, not one per job.
    let client = |jobs: &[Job], tracer: Option<&Tracer>| -> Vec<Record> {
        let mut records: Vec<Record> = Vec::with_capacity(jobs.len());
        for job in jobs {
            if records.iter().any(|r| r.timed_out) {
                records.push(Record {
                    error: Some("not sent: an earlier job timed out".into()),
                    ..Record::default()
                });
            } else {
                let reference = &refs[&(job.builtin, job.seed)];
                records.push(run_job(&addr, job, reference, tracer, JOB_TIMEOUT));
            }
        }
        records
    };
    let records: Vec<Record> = match tracer {
        // Traced passes are serial: one client, one thread.
        Some(t) => client(&sched.concat(), Some(t)),
        None => std::thread::scope(|s| {
            let handles: Vec<_> = sched
                .iter()
                .map(|jobs| s.spawn(|| client(jobs, None)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        }),
    };
    let wall_s = since(t1);
    // The daemon's CPU alone: the clients are the benchmark, not the
    // measured program.
    let cpu = cpu_s(&pid).unwrap_or(0.0) - cpu0;
    let rss_mb = peak_rss_mb(&pid).unwrap_or(0.0);
    let clean = daemon.stop();
    let mut records = records;
    if !clean {
        if let Some(last) = records.last_mut() {
            last.error
                .get_or_insert_with(|| "the daemon did not drain; killed".into());
        }
    }
    Ok(Pass {
        setup_s,
        wall_s,
        cpu_s: cpu,
        rss_mb,
        records,
    })
}

fn count(res: &mut RunResult, records: &[Record]) {
    for r in records {
        res.check(r.error.clone().map_or(Ok(()), Err));
    }
}

/// Run the workload per `opts`.
pub fn run(opts: &Opts) -> Result<RunResult, String> {
    let sched = schedule(opts.seed, CLIENTS, JOBS_PER_CLIENT);
    let refs = references(&sched)?;
    let mut res = RunResult::default();
    if opts.trace {
        run_traced(opts, &sched, &refs, &mut res)?;
    } else {
        run_untraced(opts, &sched, &refs, &mut res)?;
    }
    Ok(res)
}

fn run_untraced(
    opts: &Opts,
    sched: &[Vec<Job>],
    refs: &References,
    res: &mut RunResult,
) -> Result<(), String> {
    let t_run = now();
    let (mut setup, mut wall, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut records = Vec::new();
    for i in 0.. {
        let p = pass(&opts.exe, &format!("cache-{i}"), sched, refs, None)?;
        setup.push(p.setup_s);
        wall.push(p.wall_s);
        cpu.push(p.cpu_s);
        rss.push(p.rss_mb);
        count(res, &p.records);
        let stuck = p.records.iter().any(|r| r.timed_out);
        records.extend(p.records);
        if stuck || since(t_run) >= opts.seconds {
            break;
        }
    }
    while setup.len() < MIN_SETUPS {
        let t0 = now();
        let mut d = Daemon::start(&opts.exe, layers::scratch_dir("setup"))?;
        setup.push(since(t0));
        d.stop();
    }
    let lat: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    let hit: Vec<f64> = records
        .iter()
        .filter(|r| r.is_hit())
        .map(|r| r.latency_ms)
        .collect();
    res.push("setup_s", "s", median(&setup), setup.len());
    res.push("wall_s", "s", median(&wall), wall.len());
    res.push("cpu_s", "s", median(&cpu), cpu.len());
    res.push("peak_rss_mb", "MB", median(&rss), rss.len());
    res.push("job_p50_ms", "ms", quantile(&lat, 0.5), lat.len());
    res.push("job_p90_ms", "ms", quantile(&lat, 0.9), lat.len());
    res.push("hit_p50_ms", "ms", median(&hit), hit.len());
    Ok(())
}

fn run_traced(
    opts: &Opts,
    sched: &[Vec<Job>],
    refs: &References,
    res: &mut RunResult,
) -> Result<(), String> {
    // The in-process twin of every distinct job, serially and traced:
    // the scenario-layer cost of what the daemon's misses compute, and
    // a check that it renders what `run_scenario` does.
    let distinct: Vec<(&'static str, u64)> = refs.keys().copied().collect();
    let ref_tracer = Tracer::default();
    let mut counts = Counts::default();
    let mut outcomes = Vec::new();
    let reports = inproc::traced_reports(&distinct, &ref_tracer, &mut counts, &mut outcomes)?;
    for (key, r) in distinct.iter().zip(&reports) {
        res.check(verify::same(
            &format!("{} seed {} traced vs run_scenario", key.0, key.1),
            &r.json,
            &refs[key].json,
        ));
    }
    let mut times = LayerTimes::default();
    times.add(&ref_tracer.into_spans());

    let t_run = now();
    let (mut untraced, mut traced, mut unaccounted) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Vec<Record>> = None;
    for i in 0.. {
        let p = pass(&opts.exe, &format!("cache-u{i}"), sched, refs, None)?;
        count(res, &p.records);
        untraced.push(p.wall_s);
        let tracer = Tracer::default();
        let t = pass(
            &opts.exe,
            &format!("cache-t{i}"),
            sched,
            refs,
            Some(&tracer),
        )?;
        count(res, &t.records);
        let stuck = p.records.iter().chain(&t.records).any(|r| r.timed_out);
        let spans = tracer.into_spans();
        traced.push(t.wall_s);
        unaccounted.push(t.wall_s - trace::self_time_sum(&spans));
        if first.is_none() {
            res.spans = trace::to_ndjson("serve-mix", &spans);
            first = Some(t.records);
        }
        if stuck || since(t_run) >= opts.seconds {
            break;
        }
    }
    let records = first.expect("at least one traced pass");
    times.push(res, &counts);
    let (hits, misses) = records
        .iter()
        .fold((0, 0), |(h, m), r| (h + r.hits, m + r.misses));
    layers::push_runner(res, hits, misses, &outcomes);
    let med = |f: fn(&Record) -> f64| median(&records.iter().map(f).collect::<Vec<_>>());
    let n = records.len();
    res.push("serve.submit_ms", "ms", med(|r| r.submit_ms), n);
    res.push("serve.wait_ms", "ms", med(|r| r.wait_ms), n);
    res.push("serve.fetch_ms", "ms", med(|r| r.fetch_ms), n);
    res.push("serve.exec_ms", "ms", med(|r| r.exec_ms), n);
    res.push(
        "serve.overhead_ms",
        "ms",
        med(|r| r.latency_ms - r.exec_ms),
        n,
    );
    let hit: Vec<f64> = records
        .iter()
        .filter(|r| r.is_hit())
        .map(|r| r.latency_ms)
        .collect();
    res.push("serve.hit_p50_ms", "ms", median(&hit), hit.len());
    res.push(
        "serve.rejected",
        "count",
        records.iter().filter(|r| r.rejected).count() as f64,
        n,
    );
    layers::push_microcases(res);
    res.push(
        "trace_overhead_s",
        "s",
        median(&traced) - median(&untraced),
        traced.len(),
    );
    res.push("unaccounted_s", "s", median(&unaccounted), traced.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_third_job_repeats_an_earlier_fresh_job_of_its_client() {
        let sched = schedule(42, CLIENTS, JOBS_PER_CLIENT);
        assert_eq!(sched, schedule(42, CLIENTS, JOBS_PER_CLIENT), "seeded");
        assert_ne!(sched, schedule(43, CLIENTS, JOBS_PER_CLIENT));
        let mut fresh_seeds = Vec::new();
        for jobs in &sched {
            assert_eq!(jobs.len(), JOBS_PER_CLIENT);
            for (j, job) in jobs.iter().enumerate() {
                assert_eq!(job.repeat, j % 3 == 2);
                if job.repeat {
                    assert!(jobs[..j]
                        .iter()
                        .any(|e| !e.repeat && (e.builtin, e.seed) == (job.builtin, job.seed)));
                } else {
                    fresh_seeds.push(job.seed);
                }
            }
        }
        let mix: Vec<usize> = POOL
            .iter()
            .map(|b| {
                sched
                    .iter()
                    .flatten()
                    .filter(|j| !j.repeat && j.builtin == *b)
                    .count()
            })
            .collect();
        assert!(
            mix.iter().max().unwrap() - mix.iter().min().unwrap() <= 1,
            "{mix:?}"
        );
        let n = fresh_seeds.len();
        fresh_seeds.sort_unstable();
        fresh_seeds.dedup();
        assert_eq!(fresh_seeds.len(), n, "fresh jobs never share a seed");
    }

    #[test]
    fn a_daemon_that_never_answers_times_the_job_out() {
        // Connections queue in the listener's backlog but are never
        // served, like a daemon whose workers died mid-job.
        let silent = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = silent.local_addr().expect("addr").to_string();
        let job = schedule(42, 1, 1)[0][0];
        let reference = Reference {
            toml: seeded(job.builtin, job.seed).to_toml(),
            json: String::new(),
        };
        let t0 = now();
        let rec = run_job(&addr, &job, &reference, None, Duration::from_millis(300));
        assert!(rec.timed_out, "{rec:?}");
        assert!(rec.error.is_some());
        assert!(since(t0) < 5.0, "the deadline bounds the wait");
    }
}
