use std::error::Error;
use std::fmt;
use xtalk_circuit::{NetId, NetRole};
use xtalk_linalg::LinalgError;

/// Errors raised by the moment engines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MomentError {
    /// The moments are not finite numbers (the tree engine), or the dense
    /// oracle's conductance matrix could not be factored. Validated
    /// networks never get here: it takes a non-finite or zero-ohm element
    /// value that only a build without value checks lets through.
    Numerical(LinalgError),
    /// The requested net does not have the expected role (e.g. transfer
    /// moments requested *from* the victim's own source with an
    /// aggressor-only API).
    WrongRole {
        /// The net in question.
        net: NetId,
        /// Role the operation needed.
        expected: NetRole,
    },
    /// A Taylor order of zero was requested; at least `h0` is required.
    ZeroOrder,
    /// The first-order coefficient vanished, so no two-pole fit exists
    /// (the aggressor is not coupled to the observation node).
    DegenerateFit,
}

impl fmt::Display for MomentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MomentError::Numerical(e) => write!(f, "numerical failure in moment engine: {e}"),
            MomentError::WrongRole { net, expected } => {
                write!(f, "net {net} does not have the required role {expected:?}")
            }
            MomentError::ZeroOrder => write!(f, "taylor order must be at least 1"),
            MomentError::DegenerateFit => {
                write!(f, "first moment is zero: no coupling to the observation node")
            }
        }
    }
}

impl Error for MomentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MomentError::Numerical(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for MomentError {
    fn from(e: LinalgError) -> Self {
        MomentError::Numerical(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MomentError::ZeroOrder;
        assert!(e.to_string().contains("at least 1"));
        let e = MomentError::Numerical(LinalgError::Singular { pivot: 3 });
        assert!(e.to_string().contains("singular"));
    }
}
