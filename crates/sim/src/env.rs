//! The one reading of an on/off environment variable, and of a path.

use std::path::PathBuf;

/// Whether the environment sets `name` to anything but `0` or the empty
/// string — the one reading of every on/off `HFS_*` variable.
pub fn env_flag(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| v != "0" && !v.is_empty())
}

/// The path the environment sets `name` to; `None` when it is unset or
/// empty, so the variable's default applies — the one reading of every
/// `HFS_*` path variable.
pub fn env_path(name: &str) -> Option<PathBuf> {
    std::env::var_os(name)
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_empty_and_zero_are_off_anything_else_is_on() {
        // A name nothing else reads, so no concurrent test sees it move.
        const NAME: &str = "HFS_ENV_FLAG_UNDER_TEST";
        std::env::remove_var(NAME);
        assert!(!env_flag(NAME), "unset");
        for (value, on) in [("", false), ("0", false), ("1", true), ("yes", true)] {
            std::env::set_var(NAME, value);
            assert_eq!(env_flag(NAME), on, "{NAME}={value:?}");
        }
        std::env::remove_var(NAME);
    }

    #[test]
    fn an_unset_or_empty_path_is_none() {
        // Its own name: the test above runs concurrently.
        const NAME: &str = "ENV_PATH_UNDER_TEST";
        std::env::remove_var(NAME);
        assert_eq!(env_path(NAME), None, "unset");
        std::env::set_var(NAME, "");
        assert_eq!(env_path(NAME), None, "empty");
        std::env::set_var(NAME, "some/dir");
        assert_eq!(env_path(NAME), Some(PathBuf::from("some/dir")));
        std::env::remove_var(NAME);
    }
}
