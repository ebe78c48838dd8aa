//! Rule A: crate layering, enforced by parsing `Cargo.toml` manifests
//! natively (no `cargo tree` subprocess). Only *normal* dependency
//! edges count — `[dev-dependencies]` cycles (policies tested on the
//! virtual-time executor) are deliberate and allowed.

use crate::Violation;
use std::path::Path;

/// `(from, to)` pairs that must not be reachable over normal deps.
/// Core hosts the one event engine (`dvfs_core::exec`), and policies
/// still see it only through `ExecutorView`; neither core nor the
/// service may reach the simulator's experiment machinery (reports,
/// analysis) in `dvfs-sim`. The trace event bus sits below everything: `dvfs-core -> dvfs-trace` is the only
/// allowed edge into it, and it depends on nothing in the workspace.
/// The reactor (`dvfs-net`) is pure transport: it knows nothing about
/// scheduling (no edge out of it into the workspace), and only the
/// service layer may link it (nothing below `dvfs-serve` sees it).
pub const FORBIDDEN: &[(&str, &str)] = &[
    ("dvfs-core", "dvfs-sim"),
    ("dvfs-core", "dvfs-serve"),
    ("dvfs-serve", "dvfs-sim"),
    ("dvfs-model", "dvfs-core"),
    ("dvfs-model", "dvfs-sim"),
    ("dvfs-trace", "dvfs-core"),
    ("dvfs-trace", "dvfs-model"),
    ("dvfs-trace", "dvfs-sim"),
    ("dvfs-trace", "dvfs-serve"),
    ("dvfs-model", "dvfs-trace"),
    ("dvfs-net", "dvfs-core"),
    ("dvfs-net", "dvfs-model"),
    ("dvfs-net", "dvfs-sim"),
    ("dvfs-net", "dvfs-serve"),
    ("dvfs-net", "dvfs-trace"),
    ("dvfs-core", "dvfs-net"),
    ("dvfs-model", "dvfs-net"),
    ("dvfs-trace", "dvfs-net"),
];

/// One parsed manifest: package name plus its normal dependency names
/// with the 1-based manifest line each entry sits on.
#[derive(Debug)]
pub struct Manifest {
    /// `package.name`.
    pub name: String,
    /// Manifest path relative to the workspace root.
    pub rel_path: String,
    /// Normal deps (from `[dependencies]` and `[target.*.dependencies]`).
    pub deps: Vec<(String, usize)>,
}

#[derive(PartialEq)]
enum Section {
    Package,
    NormalDeps,
    Other,
}

/// Parse the subset of TOML that Cargo manifests in this workspace use:
/// `[section]` headers, `key = value` lines, quoted keys, and
/// `name = { … }` inline tables.
pub fn parse_manifest(text: &str, rel_path: &str) -> Option<Manifest> {
    let mut name = None;
    let mut deps = Vec::new();
    let mut section = Section::Other;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']').trim();
            section = match header {
                "package" => Section::Package,
                "dependencies" => Section::NormalDeps,
                h if h.starts_with("target.") && h.ends_with(".dependencies") => {
                    Section::NormalDeps
                }
                _ => Section::Other, // dev-/build-deps, workspace.*, profiles…
            };
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim().trim_matches('"');
        match section {
            Section::Package if key == "name" => {
                name = Some(line[eq + 1..].trim().trim_matches('"').to_string());
            }
            Section::NormalDeps => {
                // `foo = {…}`, `foo = "1"`, or `foo.workspace = true`.
                let dep = key.split('.').next().unwrap_or(key).trim().to_string();
                if !dep.is_empty() {
                    deps.push((dep, idx + 1));
                }
            }
            _ => {}
        }
    }
    Some(Manifest {
        name: name?,
        rel_path: rel_path.to_string(),
        deps,
    })
}

fn manifest_at(root: &Path, rel: &str) -> Option<Manifest> {
    let text = std::fs::read_to_string(root.join(rel)).ok()?;
    parse_manifest(&text, rel)
}

/// Discover workspace manifests: the root package (if any) plus
/// `crates/*/Cargo.toml` and `shims/*/Cargo.toml`, depth 1 only — so
/// lint test fixtures under `crates/lint/tests/` are never picked up.
pub fn discover(root: &Path) -> Vec<Manifest> {
    let mut out = Vec::new();
    if let Some(m) = manifest_at(root, "Cargo.toml") {
        out.push(m);
    }
    for dir in ["crates", "shims"] {
        let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
            continue;
        };
        let mut subdirs: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        subdirs.sort();
        for sub in subdirs {
            let rel = format!("{dir}/{sub}/Cargo.toml");
            if let Some(m) = manifest_at(root, &rel) {
                out.push(m);
            }
        }
    }
    out
}

/// Check every [`FORBIDDEN`] pair over the transitive normal-dep
/// closure; a hit is reported at the first edge out of the source crate
/// that reaches the forbidden target.
pub fn check(manifests: &[Manifest]) -> Vec<Violation> {
    let mut out = Vec::new();
    for &(from, to) in FORBIDDEN {
        let Some(src) = manifests.iter().find(|m| m.name == from) else {
            continue;
        };
        for (dep, line) in &src.deps {
            if let Some(chain) = reach(manifests, dep, to, &mut vec![from.to_string()]) {
                out.push(Violation {
                    rule: "layering".to_string(),
                    file: src.rel_path.clone(),
                    line: *line,
                    message: format!(
                        "`{from}` must not depend on `{to}` (normal deps): {}",
                        chain.join(" -> ")
                    ),
                });
                break; // one report per forbidden pair is enough
            }
        }
    }
    out
}

/// Depth-first search for `target` starting at crate `at`, returning
/// the full path (including the originating crate) on success.
fn reach(
    manifests: &[Manifest],
    at: &str,
    target: &str,
    path: &mut Vec<String>,
) -> Option<Vec<String>> {
    if path.iter().any(|p| p == at) {
        return None; // dep cycle guard (dev-dep cycles never get here, but be safe)
    }
    path.push(at.to_string());
    if at == target {
        return Some(path.clone());
    }
    if let Some(m) = manifests.iter().find(|m| m.name == at) {
        for (dep, _) in &m.deps {
            if let Some(found) = reach(manifests, dep, target, path) {
                return Some(found);
            }
        }
    }
    path.pop();
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_workspace_and_inline_dep_forms() {
        let toml = "[package]\nname = \"dvfs-serve\"\n\n[dependencies]\ndvfs-core.workspace = true\nserde = { path = \"../shims/serde\" }\n\n[dev-dependencies]\ndvfs-sim.workspace = true\n";
        let m = parse_manifest(toml, "crates/serve/Cargo.toml").unwrap();
        assert_eq!(m.name, "dvfs-serve");
        let names: Vec<&str> = m.deps.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(names, vec!["dvfs-core", "serde"]);
    }

    #[test]
    fn workspace_dependencies_section_is_not_normal_deps() {
        let toml = "[package]\nname = \"root\"\n[workspace.dependencies]\ndvfs-sim = { path = \"crates/sim\" }\n";
        let m = parse_manifest(toml, "Cargo.toml").unwrap();
        assert!(m.deps.is_empty());
    }

    #[test]
    fn transitive_forbidden_edge_is_found() {
        let mk = |name: &str, deps: &[&str]| Manifest {
            name: name.to_string(),
            rel_path: format!("crates/{name}/Cargo.toml"),
            deps: deps.iter().map(|d| (d.to_string(), 1)).collect(),
        };
        let ms = vec![
            mk("dvfs-serve", &["dvfs-middle"]),
            mk("dvfs-middle", &["dvfs-sim"]),
            mk("dvfs-sim", &[]),
        ];
        let v = check(&ms);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "layering");
        assert!(v[0]
            .message
            .contains("dvfs-serve -> dvfs-middle -> dvfs-sim"));
    }

    #[test]
    fn dev_dep_cycle_is_allowed() {
        let toml =
            "[package]\nname = \"dvfs-core\"\n[dev-dependencies]\ndvfs-sim.workspace = true\n";
        let m = parse_manifest(toml, "crates/core/Cargo.toml").unwrap();
        assert!(check(&[m]).is_empty());
    }
}
