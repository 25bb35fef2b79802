//! Request/result envelopes and the content-hash cache key.
//!
//! A [`CompileRequest`] carries the three inputs of one pipeline run as
//! canonical text — the loop body ([`vliw_ir::format_loop_full`]), the
//! machine ([`vliw_machine::format_machine`]) and the configuration
//! ([`vliw_pipeline::format_pipeline_config`]). Canonicalisation is
//! parse-then-reprint, so two requests that differ only in whitespace,
//! comments or line order of unordered sections hash to the same
//! [`CacheKey`]: the SHA-256 digest over a single preimage buffer holding
//! the [`CACHE_FORMAT_VERSION`] byte and a length-prefixed concatenation of
//! the three canonical texts (length prefixes prevent boundary-shift
//! collisions between the sections; the version byte retires every key the
//! moment compile semantics change without the text changing).
//!
//! A [`CompileResult`] carries every scalar artifact of
//! [`vliw_pipeline::LoopResult`] plus the lint diagnostics as structured
//! JSON objects (code, severity, stage, message, and the optional source
//! anchors). Every field of [`vliw_analysis::Diagnostic`] round-trips —
//! `stage` is the closed [`vliw_analysis::Stage`] enum and codes resolve
//! through [`vliw_analysis::LintCode::from_code`] — so a result
//! reconstructed from cache carries the same diagnostics a direct
//! [`vliw_pipeline::run_loop`] call would have produced.

use crate::hash::sha256_hex;
use crate::json::{parse_json, Json};
use vliw_analysis::{Diagnostic, LintCode, Severity, SourceLoc, Stage};
use vliw_ir::{format_loop_full, parse_loop, Loop};
use vliw_machine::{format_machine, parse_machine, MachineDesc};
use vliw_normal::Witness;
use vliw_pipeline::{
    format_pipeline_config, parse_pipeline_config, ExactOutcome, JointOutcome, LoopResult,
    PipelineConfig,
};

/// SHA-256 cache key as 64 lowercase hex digits.
pub type CacheKey = String;

/// Cache-format version folded into every key preimage. Bump this whenever
/// a change alters compile semantics *without* changing the canonical
/// request text (a new config default, a heuristic fix, a result-field
/// change), so stale disk artifacts from older builds can never be served:
/// they simply live under keys no current request can produce.
///
/// History: 1 = PR 3 layout (implicit — no version byte in the preimage);
/// 2 = this version byte plus the single-buffer preimage; 3 = diagnostics
/// stored as structured objects instead of pre-rendered text lines; 4 =
/// semantic (alpha-canonical) cache aliasing — results additionally stored
/// in canonical-class space, and every stored result carries an explicit
/// `v` field that decode rejects when it disagrees (mixed-version shards
/// fail closed instead of serving mis-keyed or mis-shaped entries); 5 =
/// results carry the joint solver's audited claims (`joint` object with
/// achieved/greedy/lower-bound IIs and the optimality flag); 6 = results
/// carry the exact partitioner's claims too (`exact` object with cut cost
/// and optimality flag), so truncated exact searches are visible to the
/// taint logic and on the wire.
pub const CACHE_FORMAT_VERSION: u8 = 6;

/// One compile job: the full pipeline input set as canonical text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompileRequest {
    /// Canonical loop text.
    pub loop_text: String,
    /// Canonical machine description text.
    pub machine_text: String,
    /// Canonical pipeline configuration text.
    pub config_text: String,
}

/// A [`CompileRequest`] that failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Which section failed: `"loop"`, `"machine"` or `"config"`.
    pub section: &'static str,
    /// The underlying parse error.
    pub message: String,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad {} section: {}", self.section, self.message)
    }
}

impl std::error::Error for RequestError {}

impl CompileRequest {
    /// Build a request from in-memory pipeline inputs. The encoders emit
    /// canonical text directly, so no re-canonicalisation is needed.
    pub fn from_parts(body: &Loop, machine: &MachineDesc, cfg: &PipelineConfig) -> Self {
        CompileRequest {
            loop_text: format_loop_full(body),
            machine_text: format_machine(machine),
            config_text: format_pipeline_config(cfg),
        }
    }

    /// Parse all three sections, rejecting the request if any is malformed,
    /// and return the decoded inputs. Used by the server before compiling.
    pub fn decode(&self) -> Result<(Loop, MachineDesc, PipelineConfig), RequestError> {
        let body = parse_loop(&self.loop_text).map_err(|e| RequestError {
            section: "loop",
            message: e.to_string(),
        })?;
        let machine = parse_machine(&self.machine_text).map_err(|e| RequestError {
            section: "machine",
            message: e.to_string(),
        })?;
        let cfg = parse_pipeline_config(&self.config_text).map_err(|e| RequestError {
            section: "config",
            message: e.to_string(),
        })?;
        Ok((body, machine, cfg))
    }

    /// Re-print each section from its parsed form, so formatting variants of
    /// the same inputs (extra whitespace, comments) share a cache key.
    pub fn canonicalize(&self) -> Result<CompileRequest, RequestError> {
        let (body, machine, cfg) = self.decode()?;
        Ok(CompileRequest::from_parts(&body, &machine, &cfg))
    }

    /// The canonical key preimage: one contiguous buffer holding the
    /// format-version byte followed by the length-prefixed sections (length
    /// prefixes prevent boundary-shift collisions). Built once and hashed in
    /// one pass — the sections are never re-encoded.
    pub fn preimage(&self) -> Vec<u8> {
        self.preimage_with_version(CACHE_FORMAT_VERSION)
    }

    fn preimage_with_version(&self, version: u8) -> Vec<u8> {
        let sections = [&self.loop_text, &self.machine_text, &self.config_text];
        let cap = 1 + sections.iter().map(|s| 8 + s.len()).sum::<usize>();
        let mut out = Vec::with_capacity(cap);
        out.push(version);
        for section in sections {
            out.extend_from_slice(&(section.len() as u64).to_be_bytes());
            out.extend_from_slice(section.as_bytes());
        }
        out
    }

    /// The content hash over [`CompileRequest::preimage`]. Assumes `self` is
    /// already canonical (as produced by [`CompileRequest::from_parts`] or
    /// [`CompileRequest::canonicalize`]).
    pub fn cache_key(&self) -> CacheKey {
        sha256_hex(&self.preimage())
    }

    /// Alpha-canonicalize the loop section (text canonicalisation for the
    /// other two): the returned request's [`CompileRequest::cache_key`] is
    /// the *semantic* key, shared by every request whose loop is isomorphic
    /// to this one (register renaming, commutative operand order,
    /// dependence-legal statement order, loop/array names). The witness
    /// maps this request's loop onto the canonical body and back.
    pub fn semantic_canonicalize(&self) -> Result<(CompileRequest, Witness), RequestError> {
        let (body, machine, cfg) = self.decode()?;
        let canon = vliw_normal::canonicalize(&body);
        Ok((
            CompileRequest {
                loop_text: format_loop_full(&canon.body),
                machine_text: format_machine(&machine),
                config_text: format_pipeline_config(&cfg),
            },
            canon.witness,
        ))
    }

    /// The semantic cache key: the exact key of the alpha-canonical form.
    /// Equal across all isomorphic variants of the same loop (with the same
    /// machine and configuration).
    pub fn semantic_key(&self) -> Result<CacheKey, RequestError> {
        Ok(self.semantic_canonicalize()?.0.cache_key())
    }

    /// JSON object form used on the wire and in the disk store.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("loop", Json::Str(self.loop_text.clone())),
            ("machine", Json::Str(self.machine_text.clone())),
            ("config", Json::Str(self.config_text.clone())),
        ])
    }

    /// Decode from the JSON object form.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Self::take_from_json(v.clone(), None, None)
    }

    /// Decode an owned (possibly abbreviated) request object, moving the
    /// sections out instead of cloning them: a batch entry may omit
    /// `machine`/`config` and inherit the batch-level defaults the client
    /// hoisted out of the entry list.
    pub fn take_from_json(
        v: Json,
        default_machine: Option<&str>,
        default_config: Option<&str>,
    ) -> Result<Self, String> {
        let mut m = match v {
            Json::Obj(m) => m,
            _ => return Err("request missing string field `loop`".to_string()),
        };
        let mut field = |k: &str, default: Option<&str>| -> Result<String, String> {
            match m.remove(k) {
                Some(Json::Str(s)) => Ok(s),
                Some(_) => Err(format!("request field `{k}` is not a string")),
                None => default
                    .map(str::to_string)
                    .ok_or_else(|| format!("request missing string field `{k}`")),
            }
        };
        Ok(CompileRequest {
            loop_text: field("loop", None)?,
            machine_text: field("machine", default_machine)?,
            config_text: field("config", default_config)?,
        })
    }
}

/// The artifact set produced by one pipeline run, in wire/cache form.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileResult {
    /// Cache key of the request that produced this result.
    pub key: CacheKey,
    /// Loop name.
    pub name: String,
    /// Original (pre-copy) operation count.
    pub n_ops: usize,
    /// II of the ideal monolithic schedule.
    pub ideal_ii: u32,
    /// II after partitioning, copy insertion and rescheduling.
    pub clustered_ii: u32,
    /// Kernel copies inserted.
    pub n_copies: usize,
    /// Hoisted (pre-loop) invariant copies.
    pub n_hoisted: usize,
    /// Ideal kernel IPC.
    pub ideal_ipc: f64,
    /// Clustered kernel IPC.
    pub clustered_ipc: f64,
    /// Degradation normalised to 100.
    pub normalized: f64,
    /// Spills during per-bank colouring.
    pub spills: usize,
    /// MVE kernel unroll factor.
    pub mve_unroll: u32,
    /// Peak float-register pressure in the busiest bank.
    pub peak_float_pressure: usize,
    /// Chaitin spill rounds before colouring succeeded.
    pub spill_rounds: usize,
    /// Simulation verdict (`None` = simulation disabled).
    pub sim_ok: Option<bool>,
    /// Lint findings, carried in full structured form.
    pub diagnostics: Vec<Diagnostic>,
    /// The joint solver's claims (`None` unless the `joint` partitioner
    /// ran). `optimal: false` marks a budget-truncated search whose
    /// `lower_bound_ii` is the honest proven floor.
    pub joint: Option<JointOutcome>,
    /// The exact partitioner's claims (`None` unless the `exact`
    /// partitioner ran). `optimal: false` marks a budget-truncated search
    /// whose partition is the best incumbent found.
    pub exact: Option<ExactOutcome>,
}

/// Encode one diagnostic as the wire/cache JSON object. The shape matches
/// [`Diagnostic::render_json`]: `code`, `slug`, `severity`, `stage`,
/// `message`, plus whichever source anchors are present.
fn diag_to_json(d: &Diagnostic) -> Json {
    let mut fields: Vec<(&str, Json)> = vec![
        ("code", Json::Str(d.code.code().to_string())),
        ("slug", Json::Str(d.code.slug().to_string())),
        ("severity", Json::Str(d.severity.name().to_string())),
        ("stage", Json::Str(d.stage.name().to_string())),
        ("message", Json::Str(d.message.clone())),
    ];
    if let Some(o) = d.loc.op {
        fields.push(("op", Json::Num(o.index() as f64)));
    }
    if let Some(v) = d.loc.vreg {
        fields.push(("vreg", Json::Num(v.index() as f64)));
    }
    if let Some(c) = d.loc.cycle {
        fields.push(("cycle", Json::Num(c as f64)));
    }
    if let Some(c) = d.loc.cluster {
        fields.push(("cluster", Json::Num(c.index() as f64)));
    }
    Json::obj(fields)
}

/// Decode one diagnostic object. `slug` is derived from the code and is
/// ignored on input; unknown codes, stages or severities are decode errors
/// (the cache-format version retires old spellings, so a mismatch means
/// corruption, not drift).
fn diag_from_json(v: &Json) -> Result<Diagnostic, String> {
    let s = |k: &str| -> Result<&str, String> {
        v.get(k)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("diagnostic missing string field `{k}`"))
    };
    let code = LintCode::from_code(s("code")?)
        .ok_or_else(|| format!("unknown lint code `{}`", s("code").unwrap()))?;
    let severity = Severity::parse(s("severity")?)
        .ok_or_else(|| format!("unknown severity `{}`", s("severity").unwrap()))?;
    let stage = Stage::parse(s("stage")?)
        .ok_or_else(|| format!("unknown stage `{}`", s("stage").unwrap()))?;
    let opt_u32 = |k: &str| -> Result<Option<u32>, String> {
        match v.get(k) {
            None | Some(Json::Null) => Ok(None),
            Some(j) => j
                .as_f64()
                .filter(|n| *n >= 0.0 && *n == n.trunc())
                .map(|n| Some(n as u32))
                .ok_or_else(|| format!("diagnostic field `{k}` is not an index")),
        }
    };
    let loc = SourceLoc {
        op: opt_u32("op")?.map(vliw_ir::OpId),
        vreg: opt_u32("vreg")?.map(vliw_ir::VReg),
        cycle: match v.get("cycle") {
            None | Some(Json::Null) => None,
            Some(j) => Some(
                j.as_f64()
                    .filter(|n| *n == n.trunc())
                    .ok_or("diagnostic field `cycle` is not an integer")? as i64,
            ),
        },
        cluster: opt_u32("cluster")?.map(vliw_machine::ClusterId),
    };
    let mut d = Diagnostic::new(code, stage, loc, s("message")?.to_string());
    d.severity = severity;
    Ok(d)
}

/// Renumber diagnostic source anchors through a witness direction map.
/// Anchors outside the map's domain (ops or registers the pipeline created
/// during expansion/copy insertion) are dropped rather than mis-mapped.
fn map_diag_anchors(diags: &mut [Diagnostic], op_map: &[u32], vreg_map: &[u32]) {
    for d in diags {
        d.loc.op = d
            .loc
            .op
            .and_then(|o| op_map.get(o.index()).map(|&mapped| vliw_ir::OpId(mapped)));
        d.loc.vreg = d
            .loc
            .vreg
            .and_then(|v| vreg_map.get(v.index()).map(|&mapped| vliw_ir::VReg(mapped)));
    }
}

impl CompileResult {
    /// Package a pipeline result under `key`.
    pub fn from_loop_result(key: CacheKey, r: &LoopResult) -> Self {
        CompileResult {
            key,
            name: r.name.clone(),
            n_ops: r.n_ops,
            ideal_ii: r.ideal_ii,
            clustered_ii: r.clustered_ii,
            n_copies: r.n_copies,
            n_hoisted: r.n_hoisted,
            ideal_ipc: r.ideal_ipc,
            clustered_ipc: r.clustered_ipc,
            normalized: r.normalized,
            spills: r.spills,
            mve_unroll: r.mve_unroll,
            peak_float_pressure: r.peak_float_pressure,
            spill_rounds: r.spill_rounds,
            sim_ok: r.sim_ok,
            diagnostics: r.diagnostics.clone(),
            joint: r.joint,
            exact: r.exact,
        }
    }

    /// Reconstruct a [`LoopResult`] for harness code that consumes one.
    /// Diagnostics carry over in full: a cache hit reports the same
    /// findings the original compile did.
    pub fn to_loop_result(&self) -> LoopResult {
        LoopResult {
            name: self.name.clone(),
            n_ops: self.n_ops,
            ideal_ii: self.ideal_ii,
            clustered_ii: self.clustered_ii,
            n_copies: self.n_copies,
            n_hoisted: self.n_hoisted,
            ideal_ipc: self.ideal_ipc,
            clustered_ipc: self.clustered_ipc,
            normalized: self.normalized,
            spills: self.spills,
            mve_unroll: self.mve_unroll,
            peak_float_pressure: self.peak_float_pressure,
            spill_rounds: self.spill_rounds,
            sim_ok: self.sim_ok,
            diagnostics: self.diagnostics.clone(),
            joint: self.joint,
            exact: self.exact,
        }
    }

    /// Rewrite this result from the space of the loop it was compiled in
    /// into canonical-class space: the name becomes the canonical loop
    /// name and diagnostic source anchors are renumbered through `w`
    /// (anchors pointing at pipeline-created ops/registers beyond the
    /// original body are dropped — they have no canonical identity).
    /// `key` should be the semantic key the aliased entry is stored under.
    pub fn into_canonical_space(&self, key: CacheKey, w: &Witness) -> CompileResult {
        let mut out = self.clone();
        out.key = key;
        out.name = vliw_normal::CANONICAL_LOOP_NAME.to_string();
        map_diag_anchors(&mut out.diagnostics, &w.op_to_canon, &w.vreg_to_canon);
        out
    }

    /// Rewrite a canonical-space result into the space of the caller's
    /// loop: the inverse direction of
    /// [`CompileResult::into_canonical_space`], using the *caller's*
    /// witness. `key` should be the caller's exact cache key.
    pub fn from_canonical_space(&self, key: CacheKey, w: &Witness) -> CompileResult {
        let mut out = self.clone();
        out.key = key;
        out.name = w.original_name.clone();
        map_diag_anchors(&mut out.diagnostics, &w.op_from_canon, &w.vreg_from_canon);
        out
    }

    /// JSON object form used on the wire and in the disk store. Carries the
    /// [`CACHE_FORMAT_VERSION`] explicitly so decode can fail closed on
    /// entries written by any other format version.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("v", Json::Num(CACHE_FORMAT_VERSION as f64)),
            ("key", Json::Str(self.key.clone())),
            ("name", Json::Str(self.name.clone())),
            ("n_ops", Json::Num(self.n_ops as f64)),
            ("ideal_ii", Json::Num(self.ideal_ii as f64)),
            ("clustered_ii", Json::Num(self.clustered_ii as f64)),
            ("n_copies", Json::Num(self.n_copies as f64)),
            ("n_hoisted", Json::Num(self.n_hoisted as f64)),
            ("ideal_ipc", Json::Num(self.ideal_ipc)),
            ("clustered_ipc", Json::Num(self.clustered_ipc)),
            ("normalized", Json::Num(self.normalized)),
            ("spills", Json::Num(self.spills as f64)),
            ("mve_unroll", Json::Num(self.mve_unroll as f64)),
            (
                "peak_float_pressure",
                Json::Num(self.peak_float_pressure as f64),
            ),
            ("spill_rounds", Json::Num(self.spill_rounds as f64)),
            (
                "sim_ok",
                match self.sim_ok {
                    Some(b) => Json::Bool(b),
                    None => Json::Null,
                },
            ),
            (
                "diagnostics",
                Json::Arr(self.diagnostics.iter().map(diag_to_json).collect()),
            ),
            (
                "joint",
                match &self.joint {
                    Some(j) => Json::obj([
                        ("ii", Json::Num(j.ii as f64)),
                        ("greedy_ii", Json::Num(j.greedy_ii as f64)),
                        ("lower_bound_ii", Json::Num(j.lower_bound_ii as f64)),
                        ("optimal", Json::Bool(j.optimal)),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "exact",
                match &self.exact {
                    Some(e) => Json::obj([
                        ("cost", Json::Num(e.cost)),
                        ("optimal", Json::Bool(e.optimal)),
                    ]),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Decode from the JSON object form. Rejects entries whose `v` field is
    /// missing (pre-v4 layouts) or disagrees with [`CACHE_FORMAT_VERSION`]:
    /// a mixed-version shard must fail closed, never serve a stale entry.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        match v.get("v").and_then(Json::as_f64) {
            Some(ver) if ver == CACHE_FORMAT_VERSION as f64 => {}
            Some(ver) => {
                return Err(format!(
                    "cache format version mismatch: entry is v{ver}, this build reads v{CACHE_FORMAT_VERSION}"
                ))
            }
            None => {
                return Err(format!(
                    "cache entry has no `v` field (pre-v{CACHE_FORMAT_VERSION} layout)"
                ))
            }
        }
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("result missing string field `{k}`"))
        };
        let num = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result missing numeric field `{k}`"))
        };
        let int = |k: &str| -> Result<usize, String> {
            let n = num(k)?;
            if n < 0.0 || n != n.trunc() {
                return Err(format!("field `{k}` is not a non-negative integer"));
            }
            Ok(n as usize)
        };
        let sim_ok = match v.get("sim_ok") {
            Some(Json::Null) | None => None,
            Some(Json::Bool(b)) => Some(*b),
            Some(_) => return Err("field `sim_ok` is not bool or null".into()),
        };
        let diagnostics = v
            .get("diagnostics")
            .and_then(Json::as_arr)
            .ok_or("result missing array field `diagnostics`")?
            .iter()
            .map(diag_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let joint = match v.get("joint") {
            None | Some(Json::Null) => None,
            Some(j) => {
                let jint = |k: &str| -> Result<u32, String> {
                    j.get(k)
                        .and_then(Json::as_f64)
                        .filter(|n| *n >= 0.0 && *n == n.trunc())
                        .map(|n| n as u32)
                        .ok_or_else(|| format!("joint field `{k}` is not a non-negative integer"))
                };
                Some(JointOutcome {
                    ii: jint("ii")?,
                    greedy_ii: jint("greedy_ii")?,
                    lower_bound_ii: jint("lower_bound_ii")?,
                    optimal: match j.get("optimal") {
                        Some(Json::Bool(b)) => *b,
                        _ => return Err("joint field `optimal` is not bool".into()),
                    },
                })
            }
        };
        let exact = match v.get("exact") {
            None | Some(Json::Null) => None,
            Some(e) => Some(ExactOutcome {
                cost: e
                    .get("cost")
                    .and_then(Json::as_f64)
                    .ok_or("exact field `cost` is not a number")?,
                optimal: match e.get("optimal") {
                    Some(Json::Bool(b)) => *b,
                    _ => return Err("exact field `optimal` is not bool".into()),
                },
            }),
        };
        Ok(CompileResult {
            key: str_field("key")?,
            name: str_field("name")?,
            n_ops: int("n_ops")?,
            ideal_ii: int("ideal_ii")? as u32,
            clustered_ii: int("clustered_ii")? as u32,
            n_copies: int("n_copies")?,
            n_hoisted: int("n_hoisted")?,
            ideal_ipc: num("ideal_ipc")?,
            clustered_ipc: num("clustered_ipc")?,
            normalized: num("normalized")?,
            spills: int("spills")?,
            mve_unroll: int("mve_unroll")? as u32,
            peak_float_pressure: int("peak_float_pressure")?,
            spill_rounds: int("spill_rounds")?,
            sim_ok,
            diagnostics,
            joint,
            exact,
        })
    }

    /// Parse the single-line JSON document stored on disk.
    pub fn from_json_text(text: &str) -> Result<Self, String> {
        let v = parse_json(text).map_err(|e| e.to_string())?;
        CompileResult::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_loopgen::{corpus_with, CorpusSpec};

    fn sample_inputs() -> (Loop, MachineDesc, PipelineConfig) {
        let spec = CorpusSpec {
            n: 1,
            ..Default::default()
        };
        let body = corpus_with(&spec).remove(0);
        (body, MachineDesc::embedded(2, 4), PipelineConfig::default())
    }

    #[test]
    fn key_is_stable_and_input_sensitive() {
        let (body, machine, cfg) = sample_inputs();
        let req = CompileRequest::from_parts(&body, &machine, &cfg);
        let k1 = req.cache_key();
        assert_eq!(k1.len(), 64);
        assert_eq!(k1, req.cache_key());
        // Any section change moves the key.
        let other_machine = CompileRequest::from_parts(&body, &MachineDesc::copy_unit(2, 4), &cfg);
        assert_ne!(k1, other_machine.cache_key());
        let mut cfg2 = cfg;
        cfg2.simulate = true;
        assert_ne!(
            k1,
            CompileRequest::from_parts(&body, &machine, &cfg2).cache_key()
        );
    }

    #[test]
    fn joint_partitioner_round_trips_and_keys_distinctly() {
        // The joint solver rides the existing canonical config encoding, so
        // no cache-format bump: a joint request decodes back to itself and
        // keys apart from greedy/exact at any budget.
        let (body, machine, cfg) = sample_inputs();
        let base_key = CompileRequest::from_parts(&body, &machine, &cfg).cache_key();
        let mut seen = vec![base_key];
        for budget_ms in [0u64, 2000] {
            let mut jcfg = cfg.clone();
            jcfg.partitioner = vliw_pipeline::PartitionerKind::Joint { budget_ms };
            let req = CompileRequest::from_parts(&body, &machine, &jcfg);
            let (_, _, back) = req.decode().unwrap();
            assert_eq!(back.partitioner, jcfg.partitioner);
            let key = req.cache_key();
            assert!(!seen.contains(&key), "budget {budget_ms} collided");
            seen.push(key);
        }
    }

    #[test]
    fn key_moves_when_format_version_moves() {
        let (body, machine, cfg) = sample_inputs();
        let req = CompileRequest::from_parts(&body, &machine, &cfg);
        let current = sha256_hex(&req.preimage_with_version(CACHE_FORMAT_VERSION));
        assert_eq!(current, req.cache_key());
        let bumped = sha256_hex(&req.preimage_with_version(CACHE_FORMAT_VERSION + 1));
        assert_ne!(
            current, bumped,
            "a version bump must retire every existing key"
        );
        // The PR-3 layout (no version byte) is also retired by version 2.
        let unversioned = sha256_hex(&req.preimage()[1..]);
        assert_ne!(current, unversioned);
    }

    #[test]
    fn canonicalize_erases_formatting_variants() {
        let (body, machine, cfg) = sample_inputs();
        let req = CompileRequest::from_parts(&body, &machine, &cfg);
        let noisy = CompileRequest {
            loop_text: format!("; leading comment\n{}\n\n", req.loop_text),
            machine_text: format!("  {}", req.machine_text.replace('\n', "\n  ")),
            config_text: format!("{}; trailing comment\n", req.config_text),
        };
        let canon = noisy.canonicalize().unwrap();
        assert_eq!(canon, req);
        assert_eq!(canon.cache_key(), req.cache_key());
    }

    #[test]
    fn request_json_round_trips() {
        let (body, machine, cfg) = sample_inputs();
        let req = CompileRequest::from_parts(&body, &machine, &cfg);
        let back =
            CompileRequest::from_json(&parse_json(&req.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn result_json_round_trips() {
        let (body, machine, cfg) = sample_inputs();
        let req = CompileRequest::from_parts(&body, &machine, &cfg);
        let lr = vliw_pipeline::run_loop(&body, &machine, &cfg);
        let res = CompileResult::from_loop_result(req.cache_key(), &lr);
        let back = CompileResult::from_json_text(&res.to_json().render()).unwrap();
        assert_eq!(back, res);
        // Scalars survive the LoopResult reconstruction.
        let rebuilt = back.to_loop_result();
        assert_eq!(rebuilt.clustered_ii, lr.clustered_ii);
        assert_eq!(rebuilt.normalized, lr.normalized);
        assert_eq!(rebuilt.sim_ok, lr.sim_ok);
    }

    #[test]
    fn diagnostics_round_trip_structured() {
        // A hand-built result exercising every diagnostic field, including a
        // severity that differs from the code's default and every source
        // anchor at once.
        let mut demoted = Diagnostic::new(
            LintCode::Pres002,
            Stage::Pressure,
            SourceLoc::vreg(vliw_ir::VReg(7))
                .at_cycle(-3)
                .in_cluster(vliw_machine::ClusterId(2)),
            "pressure 9 exceeds capacity 8 with \"quotes\"\nand a newline".into(),
        );
        demoted.severity = Severity::Warn;
        let res = CompileResult {
            key: "k".repeat(64),
            name: "diag-loop".into(),
            n_ops: 1,
            ideal_ii: 1,
            clustered_ii: 1,
            n_copies: 0,
            n_hoisted: 0,
            ideal_ipc: 1.0,
            clustered_ipc: 1.0,
            normalized: 100.0,
            spills: 0,
            mve_unroll: 1,
            peak_float_pressure: 0,
            spill_rounds: 0,
            sim_ok: Some(false),
            diagnostics: vec![
                demoted,
                Diagnostic::new(
                    LintCode::Sim006,
                    Stage::Sim,
                    SourceLoc::op(vliw_ir::OpId(4)),
                    "divergence".into(),
                ),
            ],
            joint: Some(JointOutcome {
                ii: 3,
                greedy_ii: 4,
                lower_bound_ii: 2,
                optimal: false,
            }),
            exact: Some(ExactOutcome {
                cost: 12.5,
                optimal: false,
            }),
        };
        let back = CompileResult::from_json_text(&res.to_json().render()).unwrap();
        assert_eq!(back, res);
        // The reconstructed LoopResult carries the findings too — a cache
        // hit is indistinguishable from a direct compile.
        assert_eq!(back.to_loop_result().diagnostics, res.diagnostics);
    }

    #[test]
    fn diagnostic_decode_rejects_unknown_names() {
        let good = diag_to_json(&Diagnostic::new(
            LintCode::Bank001,
            Stage::Partition,
            SourceLoc::default(),
            "m".into(),
        ));
        assert!(diag_from_json(&good).is_ok());
        for (field, bad) in [
            ("code", "BANK999"),
            ("severity", "fatal"),
            ("stage", "banks"),
        ] {
            let mut j = good.clone();
            if let Json::Obj(m) = &mut j {
                m.insert(field.into(), Json::Str(bad.to_string()));
            }
            assert!(diag_from_json(&j).is_err(), "`{field}` = `{bad}`");
        }
    }

    #[test]
    fn result_decode_rejects_other_format_versions() {
        let (body, machine, cfg) = sample_inputs();
        let req = CompileRequest::from_parts(&body, &machine, &cfg);
        let lr = vliw_pipeline::run_loop(&body, &machine, &cfg);
        let res = CompileResult::from_loop_result(req.cache_key(), &lr);
        let mut doc = match res.to_json() {
            Json::Obj(m) => m,
            _ => unreachable!(),
        };
        // A v3-era entry carries no `v` field at all: must fail closed.
        doc.remove("v");
        let err = CompileResult::from_json(&Json::Obj(doc.clone())).unwrap_err();
        assert!(err.contains("no `v` field"), "{err}");
        // An explicit other version must fail closed too.
        doc.insert("v".into(), Json::Num(3.0));
        let err = CompileResult::from_json(&Json::Obj(doc.clone())).unwrap_err();
        assert!(err.contains("version mismatch"), "{err}");
        doc.insert("v".into(), Json::Num(CACHE_FORMAT_VERSION as f64 + 1.0));
        assert!(CompileResult::from_json(&Json::Obj(doc)).is_err());
    }

    #[test]
    fn semantic_key_is_shared_by_isomorphic_variants_only() {
        let (body, machine, cfg) = sample_inputs();
        let req = CompileRequest::from_parts(&body, &machine, &cfg);
        let variant = vliw_normal::variant(&body, 11);
        let vreq = CompileRequest::from_parts(&variant, &machine, &cfg);
        assert_ne!(req.cache_key(), vreq.cache_key(), "texts differ");
        assert_eq!(
            req.semantic_key().unwrap(),
            vreq.semantic_key().unwrap(),
            "semantic keys agree"
        );
        // A different machine must split the semantic key.
        let other = CompileRequest::from_parts(&variant, &MachineDesc::copy_unit(2, 4), &cfg);
        assert_ne!(req.semantic_key().unwrap(), other.semantic_key().unwrap());
        // A semantically different loop must split it too.
        let perturbed = vliw_normal::perturb(&body, 5).expect("mutable");
        let preq = CompileRequest::from_parts(&perturbed, &machine, &cfg);
        assert_ne!(req.semantic_key().unwrap(), preq.semantic_key().unwrap());
    }

    #[test]
    fn canonical_space_round_trip_maps_anchors_and_name() {
        let (body, machine, cfg) = sample_inputs();
        let req = CompileRequest::from_parts(&body, &machine, &cfg);
        let (canon_req, w) = req.semantic_canonicalize().unwrap();
        let sem_key = canon_req.cache_key();
        let lr = vliw_pipeline::run_loop(&body, &machine, &cfg);
        let mut res = CompileResult::from_loop_result(req.cache_key(), &lr);
        // Attach anchored diagnostics: one mappable, one pointing past the
        // original body (a pipeline-created op) that must drop its anchor.
        res.diagnostics = vec![
            Diagnostic::new(
                LintCode::Ir007,
                Stage::Ir,
                SourceLoc {
                    op: Some(vliw_ir::OpId(0)),
                    vreg: Some(vliw_ir::VReg(0)),
                    ..Default::default()
                },
                "anchored".into(),
            ),
            Diagnostic::new(
                LintCode::Sched001,
                Stage::Schedule,
                SourceLoc::op(vliw_ir::OpId(10_000)),
                "expansion op".into(),
            ),
        ];
        let canonical = res.into_canonical_space(sem_key.clone(), &w);
        assert_eq!(canonical.key, sem_key);
        assert_eq!(canonical.name, vliw_normal::CANONICAL_LOOP_NAME);
        assert_eq!(
            canonical.diagnostics[0].loc.op,
            Some(vliw_ir::OpId(w.op_to_canon[0]))
        );
        assert_eq!(
            canonical.diagnostics[1].loc.op, None,
            "out-of-range anchor drops"
        );
        let back = canonical.from_canonical_space(req.cache_key(), &w);
        assert_eq!(back.name, body.name);
        assert_eq!(back.diagnostics[0].loc.op, Some(vliw_ir::OpId(0)));
        assert_eq!(back.diagnostics[0].loc.vreg, Some(vliw_ir::VReg(0)));
        // Scalars are class-level: untouched by the mapping.
        assert_eq!(back.clustered_ii, res.clustered_ii);
        assert_eq!(back.normalized, res.normalized);
    }

    #[test]
    fn decode_rejects_malformed_sections() {
        let (body, machine, cfg) = sample_inputs();
        let good = CompileRequest::from_parts(&body, &machine, &cfg);
        for (section, bad) in [
            (
                "loop",
                CompileRequest {
                    loop_text: "not a loop".into(),
                    ..good.clone()
                },
            ),
            (
                "machine",
                CompileRequest {
                    machine_text: "machine\ncluster x".into(),
                    ..good.clone()
                },
            ),
            (
                "config",
                CompileRequest {
                    config_text: "partitioner frobnicate".into(),
                    ..good.clone()
                },
            ),
        ] {
            let err = bad.decode().unwrap_err();
            assert_eq!(err.section, section, "{err}");
        }
    }
}
