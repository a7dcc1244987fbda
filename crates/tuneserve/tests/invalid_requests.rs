//! Outside input cannot panic the server: a request no search can run
//! (an empty space, or a model-based β that is zero, negative or NaN)
//! is refused before admission with the coded `SRV-004` shed, and the
//! server keeps serving valid traffic afterwards.

use std::sync::Arc;

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, LaunchConfig, Method, Variant};
use stencil_autotune::ParameterSpace;
use stencil_grid::Precision;
use stencil_tuneserve::{
    ServeOutcome, ServeRequest, ServeTier, ServerConfig, ShardedStore, ShedReason, TuneServer,
};
use stencil_tunestore::{RequestError, TuneRequest, TunerSpec};

fn request(space: ParameterSpace, tuner: TunerSpec) -> TuneRequest {
    TuneRequest {
        device: DeviceSpec::gtx580(),
        kernel: KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 2, Precision::Single),
        dims: GridDims::new(32, 32, 8),
        space,
        tuner,
        seed: 1,
    }
}

fn one_config() -> ParameterSpace {
    ParameterSpace::from_configs(vec![LaunchConfig::new(32, 4, 1, 1)])
}

fn server() -> TuneServer {
    TuneServer::new(
        Arc::new(ShardedStore::mem(2)),
        Arc::new(EvalContext::new()),
        ServerConfig {
            pool_limit: 1,
            lru_capacity: 8,
        },
    )
}

/// The invalid requests and the error each must be refused with.
fn invalid() -> Vec<(TuneRequest, RequestError)> {
    let beta = |beta_percent: f64| request(one_config(), TunerSpec::ModelBased { beta_percent });
    vec![
        (
            request(
                ParameterSpace::from_configs(Vec::new()),
                TunerSpec::Exhaustive,
            ),
            RequestError::EmptySpace,
        ),
        (beta(0.0), RequestError::NonPositiveBeta),
        (beta(-0.0), RequestError::NonPositiveBeta),
        (beta(-5.0), RequestError::NonPositiveBeta),
        (beta(f64::NAN), RequestError::NonPositiveBeta),
    ]
}

fn assert_refused(outcome: &ServeOutcome, want: RequestError) {
    match outcome {
        ServeOutcome::Shed(reason) => {
            assert_eq!(*reason, ShedReason::InvalidRequest(want));
            assert_eq!(reason.code(), "SRV-004");
        }
        other => panic!("expected an SRV-004 refusal, got {other:?}"),
    }
}

#[test]
fn each_invalid_request_is_refused_with_srv_004() {
    let server = server();
    let cases = invalid();
    for (req, want) in &cases {
        assert_refused(
            &server.resolve(&ServeRequest::unbounded(req.clone())),
            *want,
        );
        // A budget sends the request through oracle triage, which
        // cannot price an empty space: the refusal must come first.
        assert_refused(
            &server.resolve(&ServeRequest::with_budget(req.clone(), 1_000_000)),
            *want,
        );
    }
    let stats = server.stats();
    assert_eq!(stats.admission.shed_invalid, 2 * cases.len() as u64);
    assert_eq!(stats.admission.admitted, 0);
    assert_eq!(stats.service.computed, 0);
    assert_eq!(stats.lru.len, 0, "a refusal is never cached");
}

#[test]
fn a_batch_refuses_its_invalid_requests_and_serves_the_rest() {
    let server = server();
    let valid = request(one_config(), TunerSpec::Exhaustive);
    let mut batch = vec![ServeRequest::unbounded(valid.clone())];
    let cases = invalid();
    batch.extend(
        cases
            .iter()
            .map(|(req, _)| ServeRequest::unbounded(req.clone())),
    );
    let outcomes = server.resolve_batch(&batch);
    assert_eq!(
        outcomes[0].served().map(|s| s.tier),
        Some(ServeTier::Computed)
    );
    for (outcome, (_, want)) in outcomes[1..].iter().zip(&cases) {
        assert_refused(outcome, *want);
    }
    // The server is intact: the valid request is now a cache hit.
    let again = server.resolve(&ServeRequest::unbounded(valid));
    assert_eq!(again.served().map(|s| s.tier), Some(ServeTier::Lru));
}
