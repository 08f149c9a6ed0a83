//! Output oracle, run after each repetition's driver phase (untimed): the
//! namespace the program ends with must be the one the generator's model
//! ends with.

use switchfs::core::Cluster;
use switchfs::proto::FsError;

use crate::gen::Input;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleReport {
    pub dirs_checked: usize,
    pub paths_checked: usize,
    /// Disagreements with the model; 0 when the outputs are right.
    pub mismatches: usize,
    /// One line for each of the first few disagreements.
    pub examples: Vec<String>,
}

const MAX_EXAMPLES: usize = 20;

/// For every directory `statdir.size == readdir.len() ==` model count, and
/// every sampled path stats as the model says.
pub fn check(cluster: &Cluster, input: &Input) -> OracleReport {
    let client = cluster.client(0);
    let dirs: Vec<(String, u64)> = input
        .dirs
        .iter()
        .cloned()
        .zip(input.final_counts.iter().copied())
        .collect();
    let probes = input.probes.clone();
    cluster.block_on(async move {
        let mut report = OracleReport {
            dirs_checked: dirs.len(),
            paths_checked: probes.len(),
            mismatches: 0,
            examples: Vec::new(),
        };
        let mut wrong = |line: String| {
            report.mismatches += 1;
            if report.examples.len() < MAX_EXAMPLES {
                report.examples.push(line);
            }
        };
        for (dir, want) in &dirs {
            let size = client.statdir(dir).await.map(|a| a.size);
            let listed = client.readdir(dir).await.map(|(_, l)| l.len() as u64);
            if size != Ok(*want) || listed != Ok(*want) {
                wrong(format!(
                    "{dir}: model {want}, statdir {size:?}, readdir {listed:?}"
                ));
            }
        }
        for (path, exists) in &probes {
            let got = client.stat(path).await.map(|a| a.is_dir());
            let ok = match got {
                Ok(is_dir) => *exists && !is_dir,
                Err(FsError::NotFound) => !*exists,
                Err(_) => false,
            };
            if !ok {
                wrong(format!("{path}: model exists={exists}, stat {got:?}"));
            }
        }
        report
    })
}
