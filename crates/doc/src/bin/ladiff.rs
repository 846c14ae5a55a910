//! `ladiff` — command-line front end for the LaDiff pipeline (Section 7 of
//! Chawathe et al., SIGMOD 1996).
//!
//! ```text
//! ladiff [OPTIONS] <OLD> <NEW>
//!
//!   -t, --threshold <0.5..1.0>   inner-node match threshold t  [default 0.6]
//!   -f, --leaf-threshold <0..1>  leaf compare threshold f      [default 0.5]
//!   -s, --strategy fastmatch|simple|gumtree
//!                                matching strategy             [default fastmatch]
//!       --engine fast|simple|gumtree   alias for --strategy
//!       --min-height <n>         gumtree top-down height floor    [default 1]
//!       --sim-threshold <0..1>   gumtree bottom-up dice threshold [default 0.5]
//!       --max-recovery <n>       gumtree TED recovery size bound  [default 100]
//!       --format latex|html|markdown|xml|auto input format     [default auto]
//!       --postprocess            run the Section 8 recovery pass
//!       --timeout <secs>         wall-clock budget for the diff
//!       --max-nodes <n>          reject inputs with more than n total nodes
//!       --max-depth <n>          reject documents nested deeper than n [default 512]
//!       --output markup|html|markdown|script|delta|stats|json
//!                                 what to print                [default markup]
//! ```
//!
//! Exit codes: 0 success, 1 usage/parse/pipeline error (malformed markup
//! prints a one-line diagnostic), 4 budget exhausted or cancelled.

use std::process::ExitCode;

use hierdiff_core::cli::{Failure, PipelineFlags};
use hierdiff_doc::{ladiff, DocError, DocFormat, LaDiffOptions};

struct Args {
    old: String,
    new: String,
    format: Option<DocFormat>,
    options: LaDiffOptions,
    output: Output,
}

#[derive(PartialEq, Clone, Copy)]
enum Output {
    Markup,
    Html,
    Markdown,
    Script,
    Delta,
    Stats,
    Json,
}

/// Budget exhaustion and cancellation exit with code 4 so batch drivers can
/// tell resource-governed stops from genuine failures; everything else is 1.
fn fail_for(e: DocError) -> Failure {
    match e {
        DocError::Diff(e) => Failure::from(e),
        e => Failure::from(e.to_string()),
    }
}

const USAGE: &str = "usage: ladiff [OPTIONS] <OLD> <NEW>\n\
  -t, --threshold <0.5..1.0>    inner-node match threshold t (default 0.6)\n\
  -f, --leaf-threshold <0..1>   leaf compare threshold f (default 0.5)\n\
  -s, --strategy fastmatch|simple|gumtree\n\
                                matching strategy (default fastmatch);\n\
                                --engine is accepted as an alias\n\
      --min-height <n>          gumtree: top-down anchoring height floor (default 1)\n\
      --sim-threshold <0..1>    gumtree: bottom-up dice threshold (default 0.5)\n\
      --max-recovery <n>        gumtree: TED recovery size bound, 0 disables (default 100)\n\
      --format latex|html|markdown|xml|auto  input format (default auto)\n\
      --postprocess             run the Section 8 recovery pass\n\
      --timeout <secs>          wall-clock budget for the diff\n\
      --max-nodes <n>           reject inputs with more than n total nodes\n\
      --max-depth <n>           reject documents nested deeper than n (default 512)\n\
      --output markup|html|markdown|script|delta|stats|json   what to print (default markup)\n\
  -h, --help                    show this help\n\
exit codes: 0 success, 1 error, 4 budget exhausted or cancelled";

fn parse_args() -> Result<Args, String> {
    let mut flags = PipelineFlags::default();
    let mut format = None;
    let mut postprocess = false;
    let mut max_depth = hierdiff_doc::DEFAULT_MAX_DEPTH;
    let mut output = Output::Markup;
    let mut positional = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let flag = if a == "--engine" { "--strategy" } else { &a };
        if flags.take(flag, &mut it)? {
            continue;
        }
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "-h" | "--help" => return Err(USAGE.to_string()),
            "--format" => {
                format = match take("--format")?.as_str() {
                    "latex" => Some(DocFormat::Latex),
                    "html" => Some(DocFormat::Html),
                    "markdown" | "md" => Some(DocFormat::Markdown),
                    "xml" => Some(DocFormat::Xml),
                    "auto" => None,
                    other => return Err(format!("unknown format {other:?}")),
                }
            }
            "--postprocess" => postprocess = true,
            "--max-depth" => {
                max_depth = take("--max-depth")?
                    .parse()
                    .map_err(|e| format!("bad --max-depth: {e}"))?
            }
            "--output" => {
                output = match take("--output")?.as_str() {
                    "markup" => Output::Markup,
                    "html" => Output::Html,
                    "markdown" | "md" => Output::Markdown,
                    "script" => Output::Script,
                    "delta" => Output::Delta,
                    "stats" => Output::Stats,
                    "json" => Output::Json,
                    other => return Err(format!("unknown output {other:?}")),
                }
            }
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other => positional.push(other.to_string()),
        }
    }
    let (params, strategy, budgets) = flags.finish(false)?;
    let [old, new] = <[String; 2]>::try_from(positional)
        .map_err(|p| format!("expected 2 input files, got {}\n{USAGE}", p.len()))?;
    let options = LaDiffOptions {
        params,
        strategy,
        postprocess,
        budgets,
        max_depth,
        ..LaDiffOptions::default()
    };
    Ok(Args {
        old,
        new,
        format,
        options,
        output,
    })
}

fn run() -> Result<(), Failure> {
    let args = parse_args()?;
    let old_src = std::fs::read_to_string(&args.old).map_err(|e| format!("{}: {e}", args.old))?;
    let new_src = std::fs::read_to_string(&args.new).map_err(|e| format!("{}: {e}", args.new))?;
    let options = LaDiffOptions {
        format: args.format.unwrap_or_else(|| DocFormat::sniff(&old_src)),
        ..args.options
    };
    let out = ladiff(&old_src, &new_src, &options).map_err(fail_for)?;
    match args.output {
        Output::Markup => println!("{}", out.markup),
        Output::Html => println!("{}", out.markup_html()),
        Output::Markdown => println!("{}", out.markup_markdown()),
        Output::Script => println!("{}", out.result.script),
        Output::Delta => println!("{}", hierdiff_delta::render_text(&out.delta)),
        Output::Stats => {
            let s = &out.stats;
            println!("strategy:          {}", options.strategy.name());
            println!("old nodes:         {}", s.old_nodes);
            println!("new nodes:         {}", s.new_nodes);
            println!("matched pairs:     {}", s.matched);
            println!("rematched (post):  {}", s.rematched);
            println!(
                "edit script:       {} ops (ins {}, del {}, upd {}, mov {})",
                s.ops.total(),
                s.ops.inserts,
                s.ops.deletes,
                s.ops.updates,
                s.ops.moves
            );
            println!("weighted distance: {}", s.weighted_distance);
            println!(
                "comparisons:       r1 = {} leaf compares, r2 = {} partner checks",
                s.counters.leaf_compares, s.counters.partner_checks
            );
        }
        Output::Json => {
            let json = serde_json::json!({
                "old_nodes": out.stats.old_nodes,
                "new_nodes": out.stats.new_nodes,
                "matched": out.stats.matched,
                "ops": {
                    "insert": out.stats.ops.inserts,
                    "delete": out.stats.ops.deletes,
                    "update": out.stats.ops.updates,
                    "move": out.stats.ops.moves,
                },
                "weighted_distance": out.stats.weighted_distance,
                "script": out.result.script,
            });
            println!(
                "{}",
                serde_json::to_string_pretty(&json).map_err(|e| format!("render json: {e}"))?
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("{}", f.msg);
            ExitCode::from(f.code)
        }
    }
}
