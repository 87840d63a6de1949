package service

// dashboardHTML is the daemon's single-page dashboard: it polls
// /api/status, /api/discrepancies and /metrics.json and renders shard
// progress, corpus/queue state and the discrepancy feed. No external
// assets; works from file:// curl output too.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>classfuzzd</title>
<style>
 body { font: 14px/1.4 system-ui, sans-serif; margin: 2em; background: #111; color: #ddd; }
 h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.5em; }
 table { border-collapse: collapse; margin: .5em 0; }
 th, td { border: 1px solid #444; padding: .25em .7em; text-align: right; }
 th { background: #222; } td.l, th.l { text-align: left; }
 .ok { color: #7c7; } .warn { color: #fc6; } .bad { color: #f77; }
 code { background: #222; padding: 0 .3em; }
 #discs div { border-left: 3px solid #955; padding-left: .6em; margin: .4em 0; }
 small { color: #888; }
</style>
</head>
<body>
<h1>classfuzzd <small id="addr"></small></h1>
<div id="summary">loading…</div>
<h2>Shards</h2>
<table id="shards"><thead>
<tr><th>shard</th><th class="l">state</th><th>epoch</th><th>drawn</th><th>executed</th><th>accepted</th><th>corpus+</th></tr>
</thead><tbody></tbody></table>
<h2>Service metrics</h2>
<div id="metrics"></div>
<h2>Discrepancies</h2>
<div id="discs"><small>none yet</small></div>
<script>
async function j(u) { const r = await fetch(u); return r.json(); }
function esc(s) { return String(s).replace(/[&<>]/g, c => ({'&':'&amp;','<':'&lt;','>':'&gt;'}[c])); }
async function tick() {
  try {
    const st = await j('/api/status');
    document.getElementById('summary').innerHTML =
      '<b>' + esc(st.algorithm) + '</b>[' + esc(st.criterion) + '] — ' +
      st.base_seeds + ' base seeds + ' + st.submitted + ' submitted, queue ' +
      st.queue_depth + '/' + st.queue_cap + ', ' + st.merges + ' epochs folded, ' +
      '<span class="' + (st.discrepancies ? 'warn' : 'ok') + '">' + st.discrepancies +
      ' discrepancies</span>, coverage ' + st.coverage.Stmts + '/' + st.coverage.Branches +
      (st.stopping ? ' — <span class="bad">draining</span>' : '');
    const tb = document.querySelector('#shards tbody');
    tb.innerHTML = st.shards.map(s =>
      '<tr><td>' + s.id + '</td><td class="l">' + esc(s.state) + '</td><td>' + s.epoch +
      '</td><td>' + s.drawn + '</td><td>' + s.executed + '</td><td>' + s.accepted +
      '</td><td>' + s.submitted_used + '</td></tr>').join('');
    const m = await j('/metrics.json');
    const c = m.counters || {}, g = m.gauges || {};
    const rows = Object.keys(c).filter(k => k.startsWith('service.')).sort()
      .map(k => '<tr><td class="l"><code>' + esc(k) + '</code></td><td>' + c[k] + '</td></tr>')
      .concat(Object.keys(g).filter(k => k.startsWith('service.')).sort()
      .map(k => '<tr><td class="l"><code>' + esc(k) + '</code></td><td>' + g[k] + '</td></tr>'));
    document.getElementById('metrics').innerHTML =
      '<table><thead><tr><th class="l">metric</th><th>value</th></tr></thead><tbody>' +
      rows.join('') + '</tbody></table>';
    const d = await j('/api/discrepancies');
    if (d.discrepancies.length) {
      document.getElementById('discs').innerHTML = d.discrepancies.slice(-40).reverse().map(x =>
        '<div><b>#' + x.id + '</b> shard ' + x.shard + ' epoch ' + x.epoch +
        ' <code>' + esc(x.class) + '</code> vector <code>' + esc(x.vector) + '</code><br><small>' +
        x.outcomes.map(esc).join(' · ') + '</small></div>').join('');
    }
  } catch (e) { /* daemon draining; keep last view */ }
}
document.getElementById('addr').textContent = location.host;
tick(); setInterval(tick, 2000);
</script>
</body>
</html>
`
