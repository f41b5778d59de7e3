<?php echo $this->Html->link('Back', ['action' => 'search']); ?>
<p>first()</p>
