//! Where things are, how they get built, and what machine this is.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Value;

/// The programs the benchmark drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// The root workspace's CLI (campaign, kv, fleet, serve, servectl).
    Repro,
    /// This package's sweep workload.
    Pfsweep,
    /// This package's traced trial and seam loops.
    Pflayers,
}

impl Program {
    fn name(self) -> &'static str {
        match self {
            Program::Repro => "repro",
            Program::Pfsweep => "pfsweep",
            Program::Pflayers => "pflayers",
        }
    }
}

/// Paths of one checkout.
pub struct Env {
    /// The repository root (parent of `benchmark/`).
    pub root: PathBuf,
    /// `CARGO_TARGET_DIR` made absolute, when set.
    target_override: Option<PathBuf>,
}

impl Env {
    pub fn discover() -> Env {
        let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = bench.parent().unwrap_or(bench).to_path_buf();
        // Cargo resolves a relative CARGO_TARGET_DIR against the directory
        // it runs in; pin it so every child cargo agrees.
        let target_override = std::env::var_os("CARGO_TARGET_DIR").map(|dir| {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir
            } else {
                std::env::current_dir().unwrap_or_default().join(dir)
            }
        });
        Env {
            root,
            target_override,
        }
    }

    pub fn bench_dir(&self) -> PathBuf {
        self.root.join("benchmark")
    }

    pub fn results_dir(&self) -> PathBuf {
        self.bench_dir().join("results")
    }

    /// Scratch space inside the checkout (ignored by git).
    pub fn tmp_root(&self) -> PathBuf {
        self.bench_dir().join("tmp")
    }

    fn manifest_dir(&self, program: Program) -> PathBuf {
        match program {
            Program::Repro => self.root.clone(),
            Program::Pfsweep | Program::Pflayers => self.bench_dir(),
        }
    }

    fn binary(&self, program: Program) -> PathBuf {
        let target = self
            .target_override
            .clone()
            .unwrap_or_else(|| self.manifest_dir(program).join("target"));
        target.join("release").join(program.name())
    }

    /// `cargo build --release --bin <program>`, offline. Cargo's own
    /// freshness check makes this cheap when nothing changed; its output
    /// goes to our stderr. Returns the binary on success.
    pub fn build(&self, program: Program) -> Result<PathBuf, String> {
        let mut cargo = Command::new("cargo");
        cargo
            .args(["build", "--release", "--offline", "--quiet", "--bin"])
            .arg(program.name())
            .current_dir(self.manifest_dir(program))
            .stdout(std::process::Stdio::null());
        if let Some(dir) = &self.target_override {
            cargo.env("CARGO_TARGET_DIR", dir);
        }
        let status = cargo
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        let binary = self.binary(program);
        if status.success() && binary.is_file() {
            Ok(binary)
        } else {
            Err(format!("building {} failed ({status})", program.name()))
        }
    }
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The short git revision, or `unknown` outside a git checkout (the
/// acceptance driver runs in an exported tree).
pub fn git_rev(root: &Path) -> String {
    command_line("git", &["rev-parse", "--short", "HEAD"], root)
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a result file records about where it was measured.
pub fn machine(root: &Path) -> Value {
    let dirty = command_line(
        "git",
        &["status", "--porcelain", "--untracked-files=no"],
        root,
    )
    .map(|out| !out.is_empty());
    Value::obj(vec![
        ("nproc", Value::int(nproc() as u64)),
        ("os", Value::str(std::env::consts::OS)),
        ("arch", Value::str(std::env::consts::ARCH)),
        (
            "rustc",
            command_line("rustc", &["-V"], root).map_or(Value::Null, Value::str),
        ),
        ("git_rev", Value::str(git_rev(root))),
        ("git_dirty", dirty.map_or(Value::Null, Value::Bool)),
    ])
}
