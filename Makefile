# Canonical entry points for the RP-DBSCAN reproduction.

.PHONY: build test lint bench experiments examples doc clean

build:
	cargo build --workspace --release

test:
	cargo test --workspace

# Local pre-push gate, matching CI's lint + static-analysis + model
# jobs exactly: formatting, clippy at deny-warnings, the workspace
# invariant linter (fails only on findings absent from the committed
# LINT.json baseline, then rewrites it), and the exhaustive
# interleaving sweep over the concurrency protocols.
lint:
	cargo fmt --check
	cargo clippy --workspace --all-targets -- -D warnings
	cargo run -p xtask -- lint --baseline LINT.json
	cargo test -q -p model

bench:
	cargo bench --workspace

# Regenerate every table and figure of the paper (CSV + SVG under
# target/experiments/, logs under target/experiments/logs/).
experiments: build
	@mkdir -p target/experiments/logs
	@for bin in fig11_elapsed fig12_breakdown fig13_load_imbalance \
	            fig14_duplication fig15_scalability table4_accuracy \
	            table5_dict_size fig17_edge_reduction fig19_skewness \
	            fig20_datasize ablation_partitioning ablation_dictionary; do \
	    echo "== $$bin"; \
	    cargo run --release -p rpdbscan-bench --bin $$bin \
	        > target/experiments/logs/$$bin.log 2>&1 || echo "FAILED: $$bin"; \
	done

examples: build
	cargo run --release --example quickstart
	cargo run --release --example accuracy_vs_exact
	cargo run --release --example skewed_geo
	cargo run --release --example compare_algorithms
	cargo run --release --example engine_tour

doc:
	cargo doc --workspace --no-deps

clean:
	cargo clean
