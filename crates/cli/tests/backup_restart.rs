//! A backup restarted on its own store serves and reports the videos it
//! received by replication, though replication ships no scene spec.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::Arc;
use tasm_core::{Tasm, TasmConfig};
use tasm_server::{ServerConfig, TasmServer};
use tasm_service::ServiceConfig;

/// A store directory under the system temp dir, removed when dropped.
struct Store(PathBuf);

impl Store {
    fn new(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("tasm-cli-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Store(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("a UTF-8 temp dir")
    }

    fn open(&self) -> Tasm {
        let (videos, index) = (self.0.join("videos"), self.0.join("index"));
        Tasm::open_tiered(videos, &index, TasmConfig::default()).expect("open store")
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A `tasm serve` process, killed if the test ends before it exits.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

fn tasm(args: &str) -> Output {
    let argv = args.split_whitespace();
    let out = Command::new(env!("CARGO_BIN_EXE_tasm")).args(argv).output();
    out.expect("tasm runs")
}

/// What `tasm args` printed, having exited 0.
fn ok(args: &str) -> String {
    let out = tasm(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "tasm {args}: {stderr}");
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// The answer of a count query's first line: "N matches on F frames ...".
fn answer(out: &str) -> &str {
    let line = out.lines().next().unwrap_or_default();
    line.split_once(": ").map_or(line, |(_, answer)| answer)
}

#[test]
fn a_restarted_backup_serves_and_reports_the_videos_it_received() {
    let (primary, backup) = (Store::new("primary"), Store::new("backup"));
    let (p, b) = (primary.path(), backup.path());
    ok(&format!(
        "ingest --store {p} --name cam --dataset visual-road-2k --seconds 1 --seed 3"
    ));
    ok(&format!("detect --store {p} --name cam"));
    let count = |store: &str| {
        ok(&format!(
            "query --store {store} --name cam --label car --mode count"
        ))
    };
    let want = count(p);
    assert!(!answer(&want).starts_with("0 matches"), "{want}");

    // The full sync `serve --backup` runs at startup, into a backup server
    // over the second store: manifest, packs and index state, no scene spec.
    let server = TasmServer::bind(
        Arc::new(backup.open()),
        ServiceConfig::default(),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind backup");
    let source = primary.open();
    source.attach("cam").expect("attach primary video");
    let hook = tasm_cluster::ReplicatorHook::bootstrap(
        Arc::new(source),
        &[server.local_addr().to_string()],
    )
    .expect("full sync");
    drop(hook);
    server.shutdown();
    let cam = Path::new(b).join("videos").join("cam");
    assert!(cam.join("manifest.json").exists() && !cam.join("scene.json").exists());

    let info = ok(&format!("info --store {b}"));
    assert!(info.lines().any(|l| l.starts_with("cam:")), "{info}");
    let stats = ok(&format!("stats --store {b} --json"));
    assert!(stats.contains(r#"{"name":"cam","#), "{stats}");
    assert_eq!(answer(&count(b)), answer(&want));
    for cmd in ["info", "stats"] {
        let out = tasm(&format!("{cmd} --store {b} --name nope"));
        assert!(!out.status.success(), "{cmd} --name nope exited 0");
    }

    // Restarted with `tasm serve`, the backup answers for `cam`.
    let argv = ["serve", "--store", b, "--addr", "127.0.0.1:0"];
    let mut serve = Command::new(env!("CARGO_BIN_EXE_tasm"));
    let mut serve = Serve(
        serve
            .args(argv)
            .stdout(Stdio::piped())
            .spawn()
            .expect("serve"),
    );
    let mut lines = BufReader::new(serve.0.stdout.take().expect("piped")).lines();
    let addr = lines.by_ref().map_while(Result::ok).find_map(|line| {
        let rest = line.strip_prefix("tasm-server listening on ")?;
        rest.split_whitespace().next().map(str::to_string)
    });
    let addr = addr.expect("`tasm serve` on the backup's store never listened");
    let remote = ok(&format!(
        "client query --addr {addr} --name cam --label car --mode count"
    ));
    ok(&format!("client shutdown --addr {addr}"));
    lines.for_each(drop);
    assert!(serve.0.wait().expect("serve exits").success());
    assert_eq!(answer(&remote), answer(&want), "{remote}");
}
