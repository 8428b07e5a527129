//! The OpenAI-style completions API surface: request parsing and streaming
//! chunk serialization.
//!
//! The simulator serves synthetic models (`m0`, `m1`, …) and synthetic
//! tokens, so the API keeps the OpenAI *shape* — `model`, `prompt`,
//! `max_tokens` in; `text_completion`-chunk SSE frames out — while the
//! payloads are simulation artifacts.

use aegaeon_model::ModelId;
use aegaeon_workload::{Request, RequestId, SessionId};
use serde_json::Value;

/// Why a completions body was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// Malformed JSON or wrong field types (400).
    Bad(String),
    /// Well-formed request for a model this deployment does not serve (404).
    UnknownModel(String),
}

/// Default generation length when `max_tokens` is omitted.
pub(crate) const DEFAULT_MAX_TOKENS: u32 = 16;
/// Upper bound on requested generation length.
pub(crate) const MAX_MAX_TOKENS: u32 = 4096;
/// Upper bound on the prompt length.
pub(crate) const MAX_INPUT_TOKENS: u32 = 32768;

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) if *n >= 0 => Some(*n as u64),
        Value::F64(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
        _ => None,
    }
}

/// Parses a completions body against a deployment serving models
/// `m0..m{n_models-1}` into the request to inject, its `id` and
/// `arrival_ns` left zero (see [`aegaeon::LiveRequest`]). The model field
/// accepts `"m3"`, `"3"`, or a bare integer; the prompt length is
/// `input_tokens` when given, otherwise the whitespace token count of
/// `prompt` (minimum 1). A session turn's `prefix_tokens` is clamped to
/// leave at least one fresh prompt token.
pub fn parse_completion(body: &[u8], n_models: u32) -> Result<Request, ApiError> {
    let text = std::str::from_utf8(body).map_err(|_| ApiError::Bad("body is not UTF-8".into()))?;
    let value: Value =
        serde_json::from_str(text).map_err(|e| ApiError::Bad(format!("invalid JSON: {e:?}")))?;
    let Value::Object(obj) = value else {
        return Err(ApiError::Bad("body must be a JSON object".into()));
    };

    let model_field = obj
        .get("model")
        .ok_or_else(|| ApiError::Bad("missing field: model".into()))?;
    let idx: u64 = match model_field {
        Value::String(s) => {
            let digits = s.strip_prefix('m').unwrap_or(s);
            digits
                .parse::<u64>()
                .map_err(|_| ApiError::UnknownModel(s.clone()))?
        }
        other => as_u64(other).ok_or_else(|| ApiError::Bad("model must be a string or index".into()))?,
    };
    if idx >= n_models as u64 {
        return Err(ApiError::UnknownModel(format!("m{idx}")));
    }

    let input_tokens = match obj.get("input_tokens") {
        Some(v) => {
            let n = as_u64(v).ok_or_else(|| ApiError::Bad("input_tokens must be a non-negative integer".into()))?;
            n.clamp(1, MAX_INPUT_TOKENS as u64) as u32
        }
        None => match obj.get("prompt") {
            Some(Value::String(p)) => {
                (p.split_whitespace().count().max(1) as u64).min(MAX_INPUT_TOKENS as u64) as u32
            }
            Some(_) => return Err(ApiError::Bad("prompt must be a string".into())),
            None => 1,
        },
    };

    let output_tokens = match obj.get("max_tokens") {
        Some(v) => {
            let n = as_u64(v).ok_or_else(|| ApiError::Bad("max_tokens must be a non-negative integer".into()))?;
            n.clamp(1, MAX_MAX_TOKENS as u64) as u32
        }
        None => DEFAULT_MAX_TOKENS,
    };

    // Optional agentic-session fields: `session_id` ties consecutive turns
    // together for KV reuse; `turn_index` / `prefix_tokens` describe this
    // turn's place in the conversation. Absent `session_id`, the other two
    // are ignored (a standalone completion has no prefix to reuse).
    let session = match obj.get("session_id") {
        Some(v) => {
            let s = match v {
                Value::String(s) => s
                    .parse::<u64>()
                    .map_err(|_| ApiError::Bad("session_id must be a non-negative integer".into()))?,
                other => as_u64(other)
                    .ok_or_else(|| ApiError::Bad("session_id must be a non-negative integer".into()))?,
            };
            if s == u64::MAX {
                return Err(ApiError::Bad("session_id is reserved".into()));
            }
            SessionId(s)
        }
        None => SessionId::NONE,
    };
    let (turn_index, prefix_tokens) = if session.is_some() {
        let turn = match obj.get("turn_index") {
            Some(v) => as_u64(v)
                .ok_or_else(|| ApiError::Bad("turn_index must be a non-negative integer".into()))?
                .min(u32::MAX as u64) as u32,
            None => 0,
        };
        let prefix = match obj.get("prefix_tokens") {
            Some(v) => as_u64(v)
                .ok_or_else(|| ApiError::Bad("prefix_tokens must be a non-negative integer".into()))?
                as u32,
            None => 0,
        };
        // The prompt must keep at least one fresh token past the shared
        // prefix (same clamp the serving system applies on admission).
        (turn, prefix.min(input_tokens.saturating_sub(1)))
    } else {
        (0, 0)
    };

    Ok(Request {
        id: RequestId(0),
        model: ModelId(idx as u32),
        arrival_ns: 0,
        input_tokens,
        output_tokens,
        session,
        turn_index,
        prefix_tokens,
    })
}

/// Serializes one streaming completion chunk (OpenAI `text_completion`
/// shape; timestamps are simulated nanoseconds). The final frame (`done`)
/// additionally reports whether the turn prefilled only its delta off a
/// retained session prefix (`prefix_hit`) — observer data copied from the
/// session's token sink, so surfacing it cannot perturb the simulation.
pub fn completion_chunk(
    request_id: u64,
    model: ModelId,
    index: u32,
    at_ns: u64,
    done: bool,
    prefix_hit: bool,
) -> String {
    let finish = if done { "\"stop\"" } else { "null" };
    let hit = if done {
        if prefix_hit {
            ",\"prefix_hit\":true"
        } else {
            ",\"prefix_hit\":false"
        }
    } else {
        ""
    };
    format!(
        "{{\"id\":\"cmpl-{request_id}\",\"object\":\"text_completion\",\"created_ns\":{at_ns},\
         \"model\":\"{model}\",\"choices\":[{{\"index\":0,\"text\":\"tok{index} \",\
         \"finish_reason\":{finish}}}]{hit}}}"
    )
}

/// Serializes a JSON error body.
pub(crate) fn error_body(kind: &str, message: &str) -> String {
    let value = serde_json::to_value(message);
    let msg = serde_json::to_string(&value).unwrap_or_else(|_| "\"error\"".into());
    format!("{{\"error\":{{\"type\":\"{kind}\",\"message\":{msg}}}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_model_string_prompt_and_max_tokens() {
        let p = parse_completion(
            br#"{"model":"m2","prompt":"the quick brown fox","max_tokens":8}"#,
            4,
        )
        .unwrap();
        assert_eq!(p.model, ModelId(2));
        assert_eq!(p.input_tokens, 4);
        assert_eq!(p.output_tokens, 8);
        assert!(p.session.is_none());
        assert_eq!((p.turn_index, p.prefix_tokens), (0, 0));
    }

    #[test]
    fn parses_session_fields_and_clamps_prefix() {
        let p = parse_completion(
            br#"{"model":"m0","input_tokens":100,"session_id":7,"turn_index":2,"prefix_tokens":60}"#,
            1,
        )
        .unwrap();
        assert_eq!(p.session, SessionId(7));
        assert_eq!(p.turn_index, 2);
        assert_eq!(p.prefix_tokens, 60);
        // The prefix can never swallow the whole prompt.
        let p = parse_completion(
            br#"{"model":"m0","input_tokens":10,"session_id":"7","prefix_tokens":500}"#,
            1,
        )
        .unwrap();
        assert_eq!(p.prefix_tokens, 9);
        // Without a session the turn/prefix fields are ignored.
        let p = parse_completion(
            br#"{"model":"m0","input_tokens":10,"turn_index":3,"prefix_tokens":5}"#,
            1,
        )
        .unwrap();
        assert!(p.session.is_none());
        assert_eq!((p.turn_index, p.prefix_tokens), (0, 0));
        // The reserved NONE id is refused.
        assert!(matches!(
            parse_completion(
                br#"{"model":"m0","session_id":18446744073709551615}"#,
                1
            ),
            Err(ApiError::Bad(_))
        ));
    }

    #[test]
    fn accepts_bare_index_and_explicit_lengths() {
        let p = parse_completion(br#"{"model":1,"input_tokens":100,"max_tokens":3}"#, 2).unwrap();
        assert_eq!(p.model, ModelId(1));
        assert_eq!(p.input_tokens, 100);
        assert_eq!(p.output_tokens, 3);
    }

    #[test]
    fn unknown_model_is_distinguished_from_bad_json() {
        assert!(matches!(
            parse_completion(br#"{"model":"m9"}"#, 3),
            Err(ApiError::UnknownModel(_))
        ));
        assert!(matches!(
            parse_completion(br#"{"model":"bogus"}"#, 3),
            Err(ApiError::UnknownModel(_))
        ));
        assert!(matches!(
            parse_completion(b"not json", 3),
            Err(ApiError::Bad(_))
        ));
        assert!(matches!(
            parse_completion(br#"{"prompt":"x"}"#, 3),
            Err(ApiError::Bad(_))
        ));
    }

    #[test]
    fn defaults_apply_and_bounds_clamp() {
        let p = parse_completion(br#"{"model":"m0"}"#, 1).unwrap();
        assert_eq!(p.input_tokens, 1);
        assert_eq!(p.output_tokens, DEFAULT_MAX_TOKENS);
        let p = parse_completion(br#"{"model":"m0","max_tokens":999999}"#, 1).unwrap();
        assert_eq!(p.output_tokens, MAX_MAX_TOKENS);
    }

    #[test]
    fn chunks_are_valid_json() {
        let c = completion_chunk(7, ModelId(2), 3, 123, false, false);
        let v: Value = serde_json::from_str(&c).expect("chunk must be JSON");
        let Value::Object(o) = v else { panic!("object") };
        assert!(matches!(o.get("choices"), Some(Value::Array(_))));
        assert!(!c.contains("prefix_hit"), "only done frames report reuse");
        let done = completion_chunk(7, ModelId(2), 9, 456, true, true);
        assert!(done.contains("\"finish_reason\":\"stop\""));
        assert!(done.contains("\"prefix_hit\":true"));
        let done_miss = completion_chunk(7, ModelId(2), 9, 456, true, false);
        assert!(done_miss.contains("\"prefix_hit\":false"));
        let _: Value = serde_json::from_str(&done).expect("done frame must stay JSON");
        let err: Value = serde_json::from_str(&error_body("rate_limit", "try later")).unwrap();
        assert!(matches!(err, Value::Object(_)));
    }
}
