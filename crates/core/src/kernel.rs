//! Kernel specifications: everything the performance path needs to know
//! about a stencil computation, independent of the actual numerics.

use crate::method::{Method, Variant};
use stencil_grid::{MultiGridKernel, Precision, Real, StarStencil};

/// Performance-relevant description of a stencil kernel.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct KernelSpec {
    /// Display name.
    pub name: String,
    /// Computation method (forward-plane vs in-plane variant).
    pub method: Method,
    /// Neighbourhood radius `r`.
    pub radius: usize,
    /// Element width in bytes (4 = SP, 8 = DP).
    pub elem_bytes: usize,
    /// Flops per output grid point under `method`.
    pub flops_per_point: usize,
    /// Input grids that stream through the z-pipeline and need the
    /// variant's halo loading (the field grids swapped each iteration).
    pub streamed_inputs: usize,
    /// Time-invariant coefficient grids: loaded per plane, interior tile
    /// only (no halos), coalesced.
    pub coeff_inputs: usize,
    /// Output grids written per point.
    pub outputs: usize,
}

impl KernelSpec {
    /// Spec for the symmetric star stencil of Eqn (1) under `method`.
    pub fn star<T: Real>(method: Method, stencil: &StarStencil<T>) -> Self {
        let r = stencil.radius();
        KernelSpec {
            name: format!("star-{} {}", stencil.order(), method.label()),
            method,
            radius: r,
            elem_bytes: T::PRECISION.bytes(),
            flops_per_point: method.star_flops_per_point(r),
            streamed_inputs: 1,
            coeff_inputs: 0,
            outputs: 1,
        }
    }

    /// The *nvstencil* baseline for a star stencil.
    pub fn forward<T: Real>(stencil: &StarStencil<T>) -> Self {
        Self::star(Method::ForwardPlane, stencil)
    }

    /// An in-plane variant for a star stencil.
    pub fn inplane<T: Real>(variant: Variant, stencil: &StarStencil<T>) -> Self {
        Self::star(Method::InPlane(variant), stencil)
    }

    /// Spec for a star stencil given order and precision directly.
    pub fn star_order(method: Method, order: usize, precision: Precision) -> Self {
        let r = order / 2;
        assert!(
            order >= 2 && order.is_multiple_of(2),
            "order must be even and >= 2"
        );
        KernelSpec {
            name: format!("star-{order} {} {}", method.label(), precision.label()),
            method,
            radius: r,
            elem_bytes: precision.bytes(),
            flops_per_point: method.star_flops_per_point(r),
            streamed_inputs: 1,
            coeff_inputs: 0,
            outputs: 1,
        }
    }

    /// Spec for an application (multi-grid) kernel under `method`.
    pub fn from_app<T: Real>(method: Method, app: &dyn MultiGridKernel<T>) -> Self {
        let streamed = app.num_streamed_inputs();
        let flops = if method.is_inplane() {
            app.flops_per_point_inplane()
        } else {
            app.flops_per_point()
        };
        KernelSpec {
            name: format!("{} {}", app.name(), method.label()),
            method,
            radius: app.radius(),
            elem_bytes: T::PRECISION.bytes(),
            flops_per_point: flops,
            streamed_inputs: streamed,
            coeff_inputs: app.num_inputs() - streamed,
            outputs: app.num_outputs(),
        }
    }

    /// Total grids touched per point (Table V's In + Out).
    pub fn total_grids(&self) -> usize {
        self.streamed_inputs + self.coeff_inputs + self.outputs
    }

    /// Precision tag.
    pub fn precision(&self) -> Precision {
        match self.elem_bytes {
            4 => Precision::Single,
            8 => Precision::Double,
            other => panic!("unsupported element width {other}"),
        }
    }

    /// The same spec under a different method (used for baselining).
    /// The flops adjustment strips this routine's pipeline overhead and
    /// adds the target routine's, so
    /// `spec.with_method(m1).with_method(m0)` restores the original
    /// flops count exactly for every routine pair.
    pub fn with_method(&self, method: Method) -> Self {
        let mut s = self.clone();
        let base_flops = self.flops_per_point - self.method.flops_overhead(self.radius);
        s.flops_per_point = base_flops + method.flops_overhead(self.radius);
        s.method = method;
        s.name = s.name.replace(&self.method.label(), &method.label());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_spec_from_stencil() {
        let s: StarStencil<f32> = StarStencil::from_order(8);
        let spec = KernelSpec::inplane(Variant::FullSlice, &s);
        assert_eq!(spec.radius, 4);
        assert_eq!(spec.elem_bytes, 4);
        assert_eq!(spec.flops_per_point, 33); // 8r+1, Table II
        assert_eq!(spec.streamed_inputs, 1);
        assert_eq!(spec.outputs, 1);
        assert_eq!(spec.total_grids(), 2);
    }

    #[test]
    fn forward_spec_flops() {
        let s: StarStencil<f64> = StarStencil::from_order(8);
        let spec = KernelSpec::forward(&s);
        assert_eq!(spec.flops_per_point, 29); // 7r+1
        assert_eq!(spec.elem_bytes, 8);
        assert_eq!(spec.precision(), Precision::Double);
    }

    #[test]
    fn star_order_constructor() {
        let spec = KernelSpec::star_order(Method::ForwardPlane, 12, Precision::Single);
        assert_eq!(spec.radius, 6);
        assert_eq!(spec.flops_per_point, 43);
    }

    #[test]
    #[should_panic]
    fn odd_order_rejected() {
        KernelSpec::star_order(Method::ForwardPlane, 5, Precision::Single);
    }

    #[test]
    fn with_method_round_trips_for_every_routine_pair() {
        // Satellite property: with_method(m1).with_method(m0) restores
        // the original spec's flops for every method pair,
        // every order, both precisions — including app-style specs
        // whose flops are not the star formula.
        for precision in [Precision::Single, Precision::Double] {
            for order in [2usize, 4, 8, 12] {
                for a in Method::ALL {
                    for b in Method::ALL {
                        let spec = KernelSpec::star_order(a, order, precision);
                        let rt = spec.with_method(b).with_method(a);
                        assert_eq!(
                            rt.flops_per_point,
                            spec.flops_per_point,
                            "{} -> {} -> {} ({order}, {precision:?})",
                            a.label(),
                            b.label(),
                            a.label()
                        );
                        assert_eq!(rt.method, spec.method);
                        // App-style spec: flops decoupled from 7r+1.
                        let mut app = spec.clone();
                        app.flops_per_point = 97 + a.flops_overhead(spec.radius);
                        let rt = app.with_method(b).with_method(a);
                        assert_eq!(rt.flops_per_point, app.flops_per_point);
                    }
                }
            }
        }
    }

    #[test]
    fn with_method_switches_flops_both_ways() {
        let s: StarStencil<f32> = StarStencil::from_order(6);
        let fwd = KernelSpec::forward(&s);
        let inp = fwd.with_method(Method::InPlane(Variant::FullSlice));
        assert_eq!(inp.flops_per_point, 25);
        let back = inp.with_method(Method::ForwardPlane);
        assert_eq!(back.flops_per_point, 22);
        assert_eq!(back.method, Method::ForwardPlane);
    }
}
