//! The `cgtd` sessions.  Untraced runs, which give the end-to-end
//! figures, call the library clients `proto::submit_stream` and
//! `proto::stream_events` as `cgt submit` does.  Traced runs use a spanned
//! copy built from the public `cg_trace::proto` frame functions: it sends
//! the same frames and timestamps each exchange, which the library
//! clients do not expose.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cg_trace::proto::{
    read_frame, stream_events, submit_stream, write_frame, write_preamble, write_session_body,
    ClientError, Frame, ProtoError, SubmitOutcome,
};

use crate::inputs::Route;

/// Socket timeout: far above any session's length, so only a hung daemon
/// trips it.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Where one session's wall time went, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Opener sent → `ACCEPTED`.
    pub accept_wait: f64,
    /// `write_session_body` (all `DATA` frames and `END`).
    pub upload: f64,
    /// `END` sent → `STATS`/`ERROR`.
    pub verdict_wait: f64,
    /// Gaps between consecutive `PROGRESS` frames (live streams).
    pub progress_gaps: Vec<f64>,
}

fn connect(addr: &str) -> Result<TcpStream, ClientError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn verdict(frame: Option<Frame>) -> Result<SubmitOutcome, ClientError> {
    match frame {
        Some(Frame::Stats { cached, text }) => Ok(SubmitOutcome { cached, text }),
        Some(Frame::Error { class, message }) => Err(ClientError::Server { class, message }),
        Some(_) => Err(ProtoError::Unexpected("wanted STATS or ERROR").into()),
        None => Err(ProtoError::Truncated("server verdict").into()),
    }
}

/// Runs one session of `route` for `body` under `tenant` through the
/// library client, as `cgt submit` (`--watch` for streams) does.
pub fn submit<R: Read + Send>(
    addr: &str,
    tenant: &str,
    route: Route,
    body: &mut R,
) -> Result<SubmitOutcome, ClientError> {
    match route {
        Route::Upload => submit_stream(addr, tenant, body, Some(TIMEOUT)),
        Route::Stream => stream_events(addr, tenant, body, Some(TIMEOUT), |_| {}),
    }
}

/// Runs one session of `route` for `body` under `tenant`, recording where
/// its wall time went.
pub fn spanned_session<R: Read + Send>(
    addr: &str,
    tenant: &str,
    route: Route,
    body: &mut R,
    spans: &mut Spans,
) -> Result<SubmitOutcome, ClientError> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(ProtoError::Io)?);
    let mut writer = BufWriter::new(stream);
    write_preamble(&mut writer)?;
    let tenant = tenant.to_string();
    let opener = match route {
        Route::Upload => Frame::Submit { tenant },
        Route::Stream => Frame::Stream { tenant },
    };
    write_frame(&mut writer, &opener)?;
    writer.flush().map_err(ProtoError::Io)?;
    let opened = Instant::now();
    match read_frame(&mut reader)? {
        Some(Frame::Accepted) => {}
        Some(Frame::Busy { reason }) => return Err(ClientError::Busy { reason }),
        Some(Frame::Error { class, message }) => {
            return Err(ClientError::Server { class, message })
        }
        Some(_) => return Err(ProtoError::Unexpected("wanted ACCEPTED or BUSY").into()),
        None => return Err(ProtoError::Truncated("server reply").into()),
    }
    let accepted = Instant::now();
    spans.accept_wait = (accepted - opened).as_secs_f64();
    match route {
        Route::Upload => {
            write_session_body(body, &mut writer)?;
            let ended = Instant::now();
            spans.upload = (ended - accepted).as_secs_f64();
            let answer = verdict(read_frame(&mut reader)?);
            spans.verdict_wait = ended.elapsed().as_secs_f64();
            answer
        }
        Route::Stream => std::thread::scope(|scope| {
            let upload =
                scope.spawn(move || write_session_body(body, &mut writer).map(|_| Instant::now()));
            let mut last_progress: Option<Instant> = None;
            let answer = loop {
                match read_frame(&mut reader) {
                    Ok(Some(Frame::Progress { .. })) => {
                        let now = Instant::now();
                        if let Some(last) = last_progress {
                            spans.progress_gaps.push((now - last).as_secs_f64());
                        }
                        last_progress = Some(now);
                    }
                    Ok(frame) => break verdict(frame),
                    Err(e) => break Err(e.into()),
                }
            };
            let answered = Instant::now();
            match upload.join().expect("upload thread does not panic") {
                Ok(ended) => {
                    spans.upload = (ended - accepted).as_secs_f64();
                    spans.verdict_wait = answered.saturating_duration_since(ended).as_secs_f64();
                    answer
                }
                // The server's verdict wins over the writer's broken pipe,
                // as in `proto::stream_events`.
                Err(e) => match answer {
                    Err(ClientError::Proto(_)) => Err(ClientError::Proto(ProtoError::from(e))),
                    answer => answer,
                },
            }
        }),
    }
}

/// Scrapes one counter from the daemon's metrics text.
pub fn metric(addr: &str, name: &str) -> Result<u64, ClientError> {
    let text = cg_trace::proto::fetch_metrics(addr, Some(TIMEOUT))?;
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .ok_or_else(|| ProtoError::Malformed(format!("metrics text has no {name}")).into())
}
