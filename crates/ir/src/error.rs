//! Errors reported by program validation.

use crate::program::{LocalId, TemplateId, VarId};
use std::fmt;

/// Structural errors in a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A referenced template does not exist.
    UnknownTemplate(TemplateId),
    /// A referenced global does not exist.
    UnknownGlobal {
        template: TemplateId,
        pc: usize,
        var: VarId,
    },
    /// A referenced local slot is out of range for its template.
    UnknownLocal {
        template: TemplateId,
        pc: usize,
        local: LocalId,
    },
    /// A referenced synchronisation object does not exist.
    UnknownObject {
        template: TemplateId,
        pc: usize,
        kind: &'static str,
        index: usize,
    },
    /// A jump target is past the end of the template body.
    JumpOutOfRange {
        template: TemplateId,
        pc: usize,
        target: usize,
        len: usize,
    },
    /// A declaration's initialiser length does not match its declared length.
    InitLengthMismatch {
        name: String,
        declared: usize,
        provided: usize,
    },
    /// A declaration with zero instances.
    EmptyDeclaration(String),
    /// The builder was asked to build a program without a main template.
    MissingMain,
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnknownTemplate(t) => write!(f, "unknown template {t}"),
            IrError::UnknownGlobal { template, pc, var } => {
                write!(f, "unknown global {var} at {template}:{pc}")
            }
            IrError::UnknownLocal {
                template,
                pc,
                local,
            } => write!(f, "unknown local {local} at {template}:{pc}"),
            IrError::UnknownObject {
                template,
                pc,
                kind,
                index,
            } => write!(f, "unknown {kind} #{index} at {template}:{pc}"),
            IrError::JumpOutOfRange {
                template,
                pc,
                target,
                len,
            } => write!(
                f,
                "jump target {target} out of range (len {len}) at {template}:{pc}"
            ),
            IrError::InitLengthMismatch {
                name,
                declared,
                provided,
            } => write!(
                f,
                "initialiser for `{name}` has {provided} values but {declared} were declared"
            ),
            IrError::EmptyDeclaration(what) => write!(f, "empty declaration: {what}"),
            IrError::MissingMain => write!(f, "program has no main template"),
        }
    }
}

impl std::error::Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let e = IrError::UnknownTemplate(TemplateId(4));
        assert!(e.to_string().contains("T4"));
        let e = IrError::InitLengthMismatch {
            name: "buf".into(),
            declared: 4,
            provided: 2,
        };
        assert!(e.to_string().contains("buf"));
        assert!(e.to_string().contains('4'));
        let e = IrError::MissingMain;
        assert!(e.to_string().contains("main"));
    }
}
