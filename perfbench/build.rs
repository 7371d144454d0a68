//! Records the compiler version and build profile for the host
//! fingerprint every result carries.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    for var in ["PROFILE", "OPT_LEVEL", "DEBUG"] {
        let v = std::env::var(var).unwrap_or_default();
        println!("cargo:rustc-env=PERFBENCH_{var}={v}");
    }
    println!("cargo:rerun-if-env-changed=RUSTC");
}
